import numpy as np
import pytest

from calaudit import InsufficientPairsError, summarize, wilcoxon_signed_rank
from calaudit import stats
from calaudit.stats import midranks

import oracles


class TestMidranks:
    def test_no_ties(self):
        np.testing.assert_array_equal(
            midranks(np.array([0.3, 0.1, 0.2])), [3.0, 1.0, 2.0]
        )

    def test_ties_share_average(self):
        np.testing.assert_array_equal(
            midranks(np.array([1.0, 2.0, 2.0, 3.0])), [1.0, 2.5, 2.5, 4.0]
        )

    def test_all_equal(self):
        np.testing.assert_array_equal(midranks(np.array([5.0] * 4)), [2.5] * 4)


class TestWilcoxonSignedRank:
    def test_all_positive_n5(self):
        result = wilcoxon_signed_rank(
            np.array([2.0, 3.0, 4.0, 5.0, 6.0]), np.array([1.0] * 5)
        )
        assert result.method == "exact"
        assert result.statistic == 0.0
        assert result.p_value == 0.0625

    def test_identical_samples_rejected(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InsufficientPairsError, match="insufficient pairs"):
            wilcoxon_signed_rank(x, x)

    def test_two_sided_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.5, 1.0, 15)
        y = rng.normal(0.0, 1.0, 15)
        forward = wilcoxon_signed_rank(x, y)
        backward = wilcoxon_signed_rank(y, x)
        assert forward.statistic == backward.statistic
        assert forward.p_value == backward.p_value

    def test_exact_null_is_cached_and_free_of_pair_order(self):
        rng = np.random.default_rng(11)
        # one decimal, so the absolute differences tie
        x = np.round(rng.normal(0.3, 1.0, 20), 1)
        y = np.round(rng.normal(0.0, 1.0, 20), 1)
        result = wilcoxon_signed_rank(x, y)
        assert result.method == "exact"
        for _ in range(5):
            perm = rng.permutation(x.size)
            assert wilcoxon_signed_rank(x[perm], y[perm]) == result
        d = (x - y)[x != y]
        doubled = np.rint(2.0 * midranks(np.abs(d))).astype(np.int64)
        cached = stats._exact_distribution(tuple(np.sort(doubled).tolist()))
        assert not cached.flags.writeable
        # the convolution folded in record order, outside the cache
        uncached = stats._exact_distribution.__wrapped__(tuple(doubled.tolist()))
        assert cached.tobytes() == uncached.tobytes()

    def test_exact_matches_enumeration_all_patterns(self):
        # every tie-free sign pattern up to n=12, against the 2^n oracle
        for n in range(3, 13):
            ranks = np.arange(1.0, n + 1.0)
            cached: dict[float, float] = {}
            for mask in range(1, 2**n - 1):
                signs = np.array(
                    [1.0 if mask & (1 << i) else -1.0 for i in range(n)]
                )
                diffs = signs * ranks
                result = wilcoxon_signed_rank(diffs, np.zeros(n))
                if result.statistic not in cached:
                    cached[result.statistic] = oracles.wilcoxon_enumerated(diffs)[1]
                assert result.p_value == cached[result.statistic]

    def test_exact_matches_enumeration_with_ties(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(4, 11))
            diffs = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=n)
            expected_w, expected_p = oracles.wilcoxon_enumerated(diffs)
            result = wilcoxon_signed_rank(diffs, np.zeros(n))
            assert result.statistic == expected_w
            assert result.p_value == pytest.approx(expected_p, abs=1e-12)

    def test_zero_differences_discarded(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([1.0, 2.0, 3.0, 3.0, 4.0, 5.0])  # first three are zeros
        result = wilcoxon_signed_rank(x, y)
        assert result.n_effective == 3

    def test_normal_approximation_beyond_cutoff(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.4, 1.0, 40)
        y = rng.normal(0.0, 1.0, 40)
        result = wilcoxon_signed_rank(x, y)
        assert result.method == "normal_approx"
        assert 0.0 <= result.p_value <= 1.0

    def test_exact_and_normal_agree_in_overlap(self):
        # tie-free samples of n in [20, 25]: the approximation sits within 0.02
        import math

        rng = np.random.default_rng(3)
        worst = 0.0
        for trial in range(40):
            n = int(rng.integers(20, 26))
            x = rng.normal(0.2, 1.0, n)
            y = rng.normal(0.0, 1.0, n)
            exact = wilcoxon_signed_rank(x, y)
            assert exact.method == "exact"
            # |W - mu| is the same for W+ and W-, so the min statistic suffices
            mu = n * (n + 1) / 4.0
            sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
            z = max(0.0, abs(exact.statistic - mu) - 0.5) / sigma
            approx_p = math.erfc(z / math.sqrt(2.0))
            worst = max(worst, abs(exact.p_value - approx_p))
        assert worst < 0.02

    def test_nan_pair_rejected(self):
        # a NaN difference would count toward n but enter neither rank sum
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, np.nan], [0.0, 0.0, 0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equally long"):
            wilcoxon_signed_rank(np.array([1.0, 2.0]), np.array([1.0]))


class TestSummarize:
    def test_hand_order_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.median == 3.0
        assert summary.q1 == 2.0
        assert summary.q3 == 4.0
        assert summary.iqr == 2.0
        assert summary.mean == 3.0
        assert summary.n == 5

    def test_matches_hand_interpolation(self):
        rng = np.random.default_rng(4)
        values = rng.random(17)
        summary = summarize(values)
        q1, med, q3 = oracles.quantiles_by_hand(values, [0.25, 0.5, 0.75])
        assert summary.q1 == pytest.approx(q1, abs=1e-12)
        assert summary.median == pytest.approx(med, abs=1e-12)
        assert summary.q3 == pytest.approx(q3, abs=1e-12)

    def test_constant_values(self):
        summary = summarize([2.5] * 7)
        assert summary.iqr == 0.0
        assert summary.mean == summary.median == 2.5

    def test_single_element(self):
        summary = summarize([0.4])
        assert summary.q1 == summary.median == summary.q3 == 0.4

    def test_ordering_invariant(self):
        summary = summarize([3.0, 1.0, 2.0])
        assert summary.q1 <= summary.median <= summary.q3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            summarize([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            summarize([1.0, float("nan")])
