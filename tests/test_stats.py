"""Validation of the Friedman / Nemenyi / Mann-Whitney implementations."""
import math

import numpy as np
import pytest

from repro.core.stats import (
    cd_groups,
    chi2_sf,
    friedman_test,
    mann_whitney_u,
    nemenyi_cd,
    norm_sf,
)


class TestSpecialFunctions:
    @pytest.mark.parametrize(
        "x,df,expected",
        [
            (3.841, 1, 0.05),     # chi2 95th percentile, df=1
            (5.991, 2, 0.05),     # df=2
            (21.026, 12, 0.05),   # df=12 (k=13 methods)
            (22.362, 13, 0.05),   # df=13 (Table 4's k=14 methods)
            (0.0, 5, 1.0),
        ],
    )
    def test_chi2_sf_reference_values(self, x, df, expected):
        assert chi2_sf(x, df) == pytest.approx(expected, abs=2e-4)

    def test_chi2_sf_monotone(self):
        vals = [chi2_sf(x, 4) for x in (0.5, 1, 2, 5, 10, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "z,expected", [(0.0, 0.5), (1.645, 0.05), (1.96, 0.025), (2.576, 0.005)]
    )
    def test_norm_sf(self, z, expected):
        assert norm_sf(z) == pytest.approx(expected, abs=2e-4)


class TestFriedman:
    def test_identical_algorithms_high_p(self):
        scores = np.tile([[1.0, 1.0, 1.0]], (12, 1))
        res = friedman_test(scores)
        assert res.p_value > 0.9

    def test_clear_winner_low_p(self):
        g = np.random.default_rng(0)
        base = g.random((20, 4))
        base[:, 0] += 10.0  # algorithm 0 always best
        base[:, 3] -= 10.0  # algorithm 3 always worst
        res = friedman_test(base)
        assert res.p_value < 1e-4
        assert res.avg_ranks[0] == pytest.approx(1.0)
        assert res.avg_ranks[3] == pytest.approx(4.0)

    def test_against_naive_reference(self):
        """Cross-check ranks and statistic against a from-scratch computation."""
        g = np.random.default_rng(2)
        scores = g.random((14, 4))
        scores[3, 1] = scores[3, 2]  # inject a tie
        res = friedman_test(scores)
        # naive reference: scipy-style midranks per row, chi2 statistic
        n, k = scores.shape
        ref_ranks = np.zeros(k)
        for row in scores:
            r = np.zeros(k)
            for j, v in enumerate(row):
                r[j] = 1 + sum(1 for w in row if w > v) + 0.5 * (
                    sum(1 for w in row if w == v) - 1
                )
            ref_ranks += r
        ref_ranks /= n
        np.testing.assert_allclose(res.avg_ranks, ref_ranks, atol=1e-12)
        ref_stat = 12 * n / (k * (k + 1)) * (np.sum(ref_ranks**2) - k * (k + 1) ** 2 / 4)
        assert res.statistic == pytest.approx(ref_stat)

    def test_nan_gets_worst_rank(self):
        scores = np.array([[3.0, 2.0, np.nan], [3.0, 2.0, 1.0]])
        res = friedman_test(scores)
        assert res.avg_ranks[2] == 3.0

    def test_ties_get_midranks(self):
        scores = np.array([[1.0, 1.0, 0.5]])
        res = friedman_test(scores)
        assert res.avg_ranks[0] == res.avg_ranks[1] == 1.5
        assert res.avg_ranks[2] == 3.0


class TestNemenyi:
    def test_demsar_cd_value(self):
        # Demšar 2006: k=4, N=14, q=2.569 -> CD ~ 1.25
        assert nemenyi_cd(4, 14) == pytest.approx(1.25, abs=0.01)

    def test_paper_configuration(self):
        # FCBench §5.4: alpha=.05, k=13, N=33
        cd = nemenyi_cd(13, 33)
        assert 3.1 < cd < 3.3  # 3.313*sqrt(13*14/(6*33)) ~ 3.18

    def test_groups(self):
        ranks = np.array([1.0, 1.5, 5.0])
        grp = cd_groups(ranks, ["a", "b", "c"], cd=1.0)
        assert ["a", "b"] in grp
        assert not any("c" in g and "a" in g for g in grp)


class TestMannWhitney:
    def test_identical_samples_p_one_ish(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        _, p = mann_whitney_u(x, x)
        assert p > 0.9

    def test_disjoint_samples_small_p(self):
        g = np.random.default_rng(1)
        x = g.random(30)
        y = g.random(30) + 10
        _, p = mann_whitney_u(x, y)
        assert p < 1e-6

    def test_reference_value(self):
        # hand-computed example: ranks of x in the pooled sample are
        # {5,7,3,9,8} -> R_x=32, U1=32-15=17, U2=20-17=3, so U=min=3;
        # exact two-sided p = 2 * 7/126 = 0.1111 (normal approx is close)
        x = [19, 22, 16, 29, 24]
        y = [20, 11, 17, 12]
        u, p = mann_whitney_u(x, y)
        assert u == 3.0
        assert p == pytest.approx(0.1111, abs=0.02)

    def test_heavy_ties_against_naive_reference(self):
        """U from pairwise counts, σ² with the tie correction from group sizes."""
        g = np.random.default_rng(3)
        x = g.integers(0, 4, size=17).astype(float)
        y = g.integers(1, 5, size=12).astype(float)
        nx, ny = len(x), len(y)
        n = nx + ny
        u1 = sum((a > b) + 0.5 * (a == b) for a in x for b in y)
        ref_u = min(u1, nx * ny - u1)
        pooled = list(x) + list(y)
        ties = sum(pooled.count(v) ** 3 - pooled.count(v) for v in set(pooled))
        assert ties > 0
        sigma = math.sqrt(nx * ny / 12 * ((n + 1) - ties / (n * (n - 1))))
        z = (abs(ref_u - nx * ny / 2) - 0.5) / sigma
        u, p = mann_whitney_u(x, y)
        assert u == ref_u
        assert p == pytest.approx(math.erfc(z / math.sqrt(2)), rel=1e-12)

    def test_nan_filtered(self):
        u, p = mann_whitney_u([1.0, np.nan, 2.0], [1.5, 2.5, np.nan])
        assert math.isfinite(p)
