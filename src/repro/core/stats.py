"""Statistical tests of §2.4/§5.4: Friedman, Nemenyi CD, Mann-Whitney U.

SciPy is not available offline, so the needed special functions
(regularized incomplete gamma for the χ² survival function, the normal
survival function via erfc) are implemented here; the Nemenyi critical
values use the standard q_α table (studentized range / √2) for α = 0.05.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# --- special functions -------------------------------------------------------

def _gammainc_upper_reg(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x), for chi2 tails.

    Series for x < s+1, continued fraction otherwise (Numerical Recipes).
    """
    if x < 0 or s <= 0:
        raise ValueError("bad arguments")
    if x == 0:
        return 1.0
    if x < s + 1:
        # P(s,x) by series, return 1 - P
        term = 1.0 / s
        total = term
        a = s
        for _ in range(500):
            a += 1.0
            term *= x / a
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        p = total * math.exp(-x + s * math.log(x) - math.lgamma(s))
        return 1.0 - p
    # Q(s,x) by Lentz continued fraction
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def chi2_sf(x: float, df: int) -> float:
    """Survival function of the chi-squared distribution."""
    return _gammainc_upper_reg(df / 2.0, x / 2.0)


def norm_sf(z: float) -> float:
    """Survival function of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# --- Friedman test -----------------------------------------------------------

@dataclass
class FriedmanResult:
    statistic: float
    p_value: float
    avg_ranks: np.ndarray  # average rank per algorithm (1 = best)
    k: int
    n: int


def _rank_rows(scores: np.ndarray, higher_is_better: bool) -> np.ndarray:
    """Per-dataset ranks with midrank ties (1 = best)."""
    x = scores if higher_is_better else -scores
    n, k = x.shape
    ranks = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        row = x[i]
        order = np.argsort(-row, kind="mergesort")
        r = np.empty(k, dtype=np.float64)
        r[order] = np.arange(1, k + 1, dtype=np.float64)
        # midranks for ties
        for v in np.unique(row):
            tied = row == v
            if tied.sum() > 1:
                r[tied] = r[tied].mean()
        ranks[i] = r
    return ranks


def friedman_test(scores: np.ndarray, higher_is_better: bool = True) -> FriedmanResult:
    """Friedman rank test over an (N datasets × k algorithms) score matrix.

    NaN scores (failed runs, the paper's "-" entries) are assigned the
    worst rank in their row, matching how a practitioner would treat a
    crashed compressor.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n, k = scores.shape
    filled = scores.copy()
    for i in range(n):
        bad = ~np.isfinite(filled[i])
        if bad.any():
            worst = np.nanmin(filled[i]) if higher_is_better else np.nanmax(filled[i])
            filled[i, bad] = (worst - 1) if higher_is_better else (worst + 1)
    ranks = _rank_rows(filled, higher_is_better)
    avg = ranks.mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * (np.sum(avg**2) - k * (k + 1) ** 2 / 4.0)
    p = chi2_sf(stat, k - 1)
    return FriedmanResult(float(stat), float(p), avg, k, n)


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
    x = np.asarray([v for v in x if np.isfinite(v)], dtype=np.float64)
    y = np.asarray([v for v in y if np.isfinite(v)], dtype=np.float64)
    nx, ny = x.size, y.size
    if nx == 0 or ny == 0:
        return float("nan"), float("nan")
    allv = np.concatenate([x, y])
    order = np.argsort(allv, kind="mergesort")
    ranks = np.empty(allv.size, dtype=np.float64)
    ranks[order] = np.arange(1, allv.size + 1, dtype=np.float64)
    for v in np.unique(allv):
        tied = allv == v
        if tied.sum() > 1:
            ranks[tied] = ranks[tied].mean()
    rx = ranks[:nx].sum()
    u1 = rx - nx * (nx + 1) / 2.0
    u2 = nx * ny - u1
    u = min(u1, u2)
    n = nx + ny
    _, tie_counts = np.unique(allv, return_counts=True)
    tie_term = np.sum(tie_counts**3 - tie_counts) / (n * (n - 1)) if n > 1 else 0.0
    sigma2 = nx * ny / 12.0 * ((n + 1) - tie_term)
    if sigma2 <= 0:
        return float(u), 1.0
    mu = nx * ny / 2.0
    z = (abs(u - mu) - 0.5) / math.sqrt(sigma2)  # continuity correction
    p = min(1.0, 2.0 * norm_sf(z))
    return float(u), float(p)
