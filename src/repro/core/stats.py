"""Statistical tests of §2.4/§5.4: Friedman, Nemenyi CD, Mann-Whitney U.

SciPy is not available offline, so the two survival functions are
written out: the χ² tail in closed form for the integer degrees of
freedom a Friedman test has, and the normal tail via erfc. The Nemenyi
critical values use the standard q_α table (studentized range / √2) for
α = 0.05.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# --- survival functions ------------------------------------------------------

def chi2_sf(x: float, df: int) -> float:
    """Survival function of the chi-squared distribution, integer ``df`` ≥ 1.

    With ``h = x/2`` and ``a = (df mod 2)/2``, Q(df/2, h) is ``erfc(√h)``
    (odd df only) plus Σ_{j < ⌊df/2⌋} e^{−h} h^{j+a} / Γ(j+a+1): a finite
    sum of positive terms, each the last times ``h / (j+1+a)``.
    """
    h = x / 2.0
    a = (df % 2) / 2.0
    q = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    term = math.exp(-h) * h**a / math.gamma(a + 1.0)
    for j in range(df // 2):
        q += term
        term *= h / (j + 1 + a)
    return q


def norm_sf(z: float) -> float:
    """Survival function of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _midranks(x: np.ndarray) -> np.ndarray:
    """Ascending ranks (1 = smallest) along the last axis, ties averaged.

    Quadratic in the axis length, which is at most a few dozen here.
    """
    lt = (x[..., None, :] < x[..., :, None]).sum(axis=-1)
    eq = (x[..., None, :] == x[..., :, None]).sum(axis=-1)
    return lt + (eq + 1) / 2.0


# --- Friedman test -----------------------------------------------------------

@dataclass
class FriedmanResult:
    statistic: float
    p_value: float
    avg_ranks: np.ndarray  # average rank per algorithm (1 = best)


def friedman_test(scores: np.ndarray) -> FriedmanResult:
    """Friedman rank test over an (N datasets × k algorithms) score matrix,
    higher scores ranking better.

    NaN scores (failed runs, the paper's "-" entries) are assigned the
    worst rank in their row, matching how a practitioner would treat a
    crashed compressor.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n, k = scores.shape
    worst = np.nanmin(scores, axis=1, keepdims=True) - 1
    filled = np.where(np.isfinite(scores), scores, worst)
    avg = _midranks(-filled).mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * (np.sum(avg**2) - k * (k + 1) ** 2 / 4.0)
    return FriedmanResult(float(stat), float(chi2_sf(stat, k - 1)), avg)


#: q_alpha(0.05, k) / sqrt(2) for the Nemenyi test, k = 2..20 (Demšar 2006).
_NEMENYI_Q05 = {
    2: 1.960, 3: 2.344, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949, 8: 3.031,
    9: 3.102, 10: 3.164, 11: 3.219, 12: 3.268, 13: 3.313, 14: 3.354,
    15: 3.391, 16: 3.426, 17: 3.458, 18: 3.489, 19: 3.517, 20: 3.544,
}


def nemenyi_cd(k: int, n: int) -> float:
    """Critical difference of average ranks at alpha = 0.05 (post-hoc Nemenyi, §2.4)."""
    q = _NEMENYI_Q05[k]
    return q * math.sqrt(k * (k + 1) / (6.0 * n))


def cd_groups(avg_ranks: np.ndarray, names: list[str], cd: float) -> list[list[str]]:
    """Cliques of methods not significantly different (the CD-diagram bars)."""
    order = np.argsort(avg_ranks)
    groups: list[list[str]] = []
    for i in range(len(order)):
        grp = [names[order[i]]]
        for j in range(i + 1, len(order)):
            if avg_ranks[order[j]] - avg_ranks[order[i]] <= cd:
                grp.append(names[order[j]])
        if len(grp) > 1 and not any(set(grp) <= set(g) for g in groups):
            groups.append(grp)
    return groups


# --- Mann-Whitney U ----------------------------------------------------------

def mann_whitney_u(x, y) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test (normal approximation with tie correction).

    Used by Table 9 to test whether dimension information significantly
    changes compression ratios (§6.1.5).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x, y = x[np.isfinite(x)], y[np.isfinite(y)]
    nx, ny = x.size, y.size
    if nx == 0 or ny == 0:
        return float("nan"), float("nan")
    allv = np.concatenate([x, y])
    u1 = _midranks(allv)[:nx].sum() - nx * (nx + 1) / 2.0
    u = min(u1, nx * ny - u1)
    n = nx + ny
    _, tie_counts = np.unique(allv, return_counts=True)
    tie_term = np.sum(tie_counts**3 - tie_counts) / (n * (n - 1))  # n >= 2 here
    sigma2 = nx * ny / 12.0 * ((n + 1) - tie_term)
    if sigma2 <= 0:
        return float(u), 1.0
    mu = nx * ny / 2.0
    z = (abs(u - mu) - 0.5) / math.sqrt(sigma2)  # continuity correction
    p = min(1.0, 2.0 * norm_sf(z))
    return float(u), float(p)
