import numpy as np
import pytest
from scipy.stats import rankdata, wilcoxon

from sirvar.core import EnsembleResult, WeeklySeries
from sirvar.stats import (
    EXACT_LIMIT,
    WilcoxonResult,
    _midranks,
    _normal_approx_p,
    weekly_summary,
    wilcoxon_signed_rank,
)


def enumeration_oracle(diffs):
    """Literal all-sign-assignments Wilcoxon oracle (two-sided, 2*min tail)."""
    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        return 1.0
    ranks = rankdata(np.abs(diffs))
    w_obs = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
    signs = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    w_all = signs @ ranks
    p = 2.0 * np.count_nonzero(w_all <= w_obs + 1e-12) / 2**n
    return min(1.0, p)


class TestWeeklySummary:
    def test_identical_replicates_have_zero_iqr(self):
        ens = EnsembleResult(np.tile([3.0, 7.0, 1.0], (10, 1)))
        summary = weekly_summary(ens)
        assert np.array_equal(summary.iqr, np.zeros(3))
        assert summary.total_variation == 0.0
        assert np.array_equal(summary.median, [3.0, 7.0, 1.0])

    def test_linear_interpolation_rule(self):
        # four replicates {10, 20, 30, 40}: positions 1 + 3q give
        # q1 = 17.5, median = 25, q3 = 32.5 under the contract rule
        ens = EnsembleResult([[10.0], [20.0], [30.0], [40.0]])
        summary = weekly_summary(ens)
        assert summary.q1[0] == 17.5
        assert summary.median[0] == 25.0
        assert summary.q3[0] == 32.5
        assert summary.iqr[0] == 15.0
        assert summary.total_variation == 15.0

    def test_quartile_ordering_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            matrix = rng.uniform(0.0, 100.0, size=(int(rng.integers(2, 40)), 6))
            summary = weekly_summary(EnsembleResult(matrix))
            mins, maxs = matrix.min(axis=0), matrix.max(axis=0)
            assert np.all(mins <= summary.q1)
            assert np.all(summary.q1 <= summary.median)
            assert np.all(summary.median <= summary.q3)
            assert np.all(summary.q3 <= maxs)

    def test_shift_invariance(self):
        rng = np.random.default_rng(14)
        matrix = rng.uniform(0.0, 50.0, size=(30, 8))
        base = weekly_summary(EnsembleResult(matrix))
        shifted = weekly_summary(EnsembleResult(matrix + 11.25))
        assert shifted.median == pytest.approx(base.median + 11.25, abs=1e-9)
        assert shifted.q1 == pytest.approx(base.q1 + 11.25, abs=1e-9)
        assert shifted.q3 == pytest.approx(base.q3 + 11.25, abs=1e-9)
        assert shifted.iqr == pytest.approx(base.iqr, abs=1e-9)
        assert shifted.total_variation == pytest.approx(base.total_variation, abs=1e-9)

    def test_single_replicate_median_is_identity(self):
        ens = EnsembleResult([[5.0, 9.0, 2.0]])
        assert np.array_equal(weekly_summary(ens).median, [5.0, 9.0, 2.0])

    def test_odd_count_middle_order_statistic(self):
        ens = EnsembleResult([[4.0], [1.0], [9.0]])
        assert weekly_summary(ens).median[0] == 4.0


class TestWilcoxon:
    def test_identical_series(self):
        x = WeeklySeries([1.0, 2.0, 3.0, 4.0])
        res = wilcoxon_signed_rank(x.infected, x.infected)
        assert res.n_effective == 0
        assert res.p_value == 1.0
        assert not res.reject_at_5pct

    def test_five_positive_distinct_differences(self):
        x = [10.0, 20.0, 30.0, 40.0, 50.0]
        y = [9.0, 18.0, 27.0, 36.0, 45.0]
        res = wilcoxon_signed_rank(x, y)
        assert res.n_effective == 5
        assert res.w_statistic == 0.0
        assert res.p_value == 0.0625

    def test_matches_enumeration_oracle(self):
        # The function ranks the float64 differences it is given, so the
        # oracle is fed the same differences, (x + d) - x.  With x on the
        # integer grid, integer d arrives exactly: its ties and zeros are
        # what the function sees.
        rng = np.random.default_rng(17)
        for case in range(200):
            n = int(rng.integers(1, 11))
            if case % 2:
                d = rng.normal(0.0, 2.0, n)
            else:
                d = rng.integers(-3, 4, n).astype(float)
            x = np.floor(rng.uniform(0.0, 50.0, n))
            given = (x + d) - x
            if case % 2 == 0:
                assert np.array_equal(given, d)
            res = wilcoxon_signed_rank(x + d, x)
            assert res.p_value == pytest.approx(enumeration_oracle(given), abs=1e-12)

    def test_integer_counts_drop_zeros_and_midrank_ties(self):
        # Weekly counts differ by exact integers: one zero difference is
        # dropped, and |d| = 1 (three pairs) and |d| = 2 (two pairs) tie.
        x = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        d = np.array([0.0, 1.0, -2.0, 1.0, 2.0, -1.0])
        res = wilcoxon_signed_rank(x, x - d)
        assert res.n_effective == 5
        assert res.w_statistic == 6.5
        assert res.p_value == 1.0
        assert not res.reject_at_5pct

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            x = rng.uniform(0.0, 10.0, n)
            y = rng.uniform(0.0, 10.0, n)
            fwd = wilcoxon_signed_rank(x, y)
            rev = wilcoxon_signed_rank(y, x)
            assert fwd.w_statistic == rev.w_statistic
            assert fwd.p_value == rev.p_value

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([], [])

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError):
            WilcoxonResult(n_effective=3, w_statistic=1.0, p_value=1.5)
        assert WilcoxonResult(n_effective=3, w_statistic=1.0, p_value=0.01).reject_at_5pct
        assert not WilcoxonResult(n_effective=3, w_statistic=1.0, p_value=0.05).reject_at_5pct

    def test_exact_and_normal_branches_agree_in_tail(self):
        # The normal approximation cannot track the exact p everywhere: the
        # null distribution is discrete, and near its centre single point
        # masses exceed 2% for small n.  In the decision-relevant tail
        # (exact p <= 0.3) the two stay within 0.02 for tie-free inputs.
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(8, 21))
            shift = rng.uniform(-2.0, 2.0)
            d = rng.normal(shift, 1.0, n)
            ranks = rankdata(np.abs(d))
            w = min(ranks[d > 0].sum(), ranks[d < 0].sum())
            exact = wilcoxon_signed_rank(d, np.zeros(n)).p_value
            approx = _normal_approx_p(float(w), n, np.array([]))
            if exact <= 0.3:
                checked += 1
                assert abs(exact - approx) < 0.02
        assert checked > 300  # the tail region is well exercised

    def test_midranks_equal_scipy_on_tied_integers(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            values = rng.integers(0, int(rng.integers(1, 12)), size=int(rng.integers(1, 60)))
            values = values.astype(float)
            assert np.array_equal(_midranks(values), rankdata(values))

    def test_normal_branch_matches_scipy(self):
        # Non-zero integer differences: every pair counts, and ties abound.
        rng = np.random.default_rng(43)
        steps = np.r_[-6:0, 1:7].astype(float)
        for n in range(EXACT_LIMIT + 1, 61):
            for _ in range(5):
                d = rng.choice(steps, size=n)
                ours = wilcoxon_signed_rank(d, np.zeros(n))
                theirs = wilcoxon(d, method="approx", correction=True)
                assert ours.n_effective == n
                assert ours.w_statistic == theirs.statistic
                assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-12)
