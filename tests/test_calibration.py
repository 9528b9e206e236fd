import io
import math

import numpy as np
import pytest

from calaudit import (
    EQUAL_COUNT,
    EQUAL_WIDTH,
    ada_ece,
    bin_scores,
    brier,
    cross_entropy,
    ece,
    mce,
    reliability_curve,
    write_reliability_csv,
)

import oracles
from helpers import calibrated_scoreset, make_scoreset


class TestBinScores:
    def test_equal_width_boundaries(self):
        s = calibrated_scoreset(50, seed=0)
        binning = bin_scores(s.scores, EQUAL_WIDTH, 10)
        np.testing.assert_allclose(binning.boundaries, np.linspace(0, 1, 11))

    def test_equal_width_right_closed(self):
        s = make_scoreset([0.0, 0.1, 0.15, 1.0], [0, 1, 0, 1])
        binning = bin_scores(s.scores, EQUAL_WIDTH, 10)
        assert list(binning.membership) == [0, 0, 1, 9]

    def test_equal_count_even_split(self):
        s = calibrated_scoreset(100, seed=1)
        binning = bin_scores(s.scores, EQUAL_COUNT, 10)
        sizes = np.bincount(binning.membership, minlength=10)
        assert set(sizes.tolist()) == {10}

    def test_equal_count_uneven_split(self):
        s = calibrated_scoreset(101, seed=2)
        binning = bin_scores(s.scores, EQUAL_COUNT, 10)
        sizes = sorted(np.bincount(binning.membership, minlength=10).tolist())
        assert sizes == [10] * 9 + [11]

    def test_equal_count_matches_stable_sort_oracle(self):
        rng = np.random.default_rng(3)
        scores = np.round(rng.random(57), 1)  # heavy ties
        s = make_scoreset(scores, rng.integers(0, 2, 57))
        binning = bin_scores(s.scores, EQUAL_COUNT, 7)
        assert list(binning.membership) == oracles.equal_count_membership(
            list(scores), 7
        )

    def test_equal_count_needs_enough_samples(self):
        s = calibrated_scoreset(5, seed=4)
        with pytest.raises(ValueError, match="at least"):
            bin_scores(s.scores, EQUAL_COUNT, 10)

    def test_boundaries_strictly_ascending_under_ties(self):
        s = make_scoreset([0.7] * 20, [0, 1] * 10)
        binning = bin_scores(s.scores, EQUAL_COUNT, 4)
        assert np.all(np.diff(binning.boundaries) > 0)
        assert binning.boundaries[0] == 0.0 and binning.boundaries[-1] == 1.0

    def test_bad_scheme(self):
        s = calibrated_scoreset(10, seed=5)
        with pytest.raises(ValueError, match="scheme"):
            bin_scores(s.scores, "quantile", 5)


class TestEce:
    def test_perfect_predictions(self):
        s = make_scoreset([0.0, 1.0, 0.0, 1.0], [0, 1, 0, 1])
        assert ece(s.scores, s.labels, bin_scores(s.scores)) == 0.0

    def test_single_bin_hand_value(self):
        s = make_scoreset([0.7] * 10, [1] * 5 + [0] * 5)
        assert ece(s.scores, s.labels, bin_scores(s.scores)) == pytest.approx(0.2, abs=1e-15)

    def test_matches_rebinning_oracle_equal_width(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            s = calibrated_scoreset(int(rng.integers(20, 400)), seed=trial)
            binning = bin_scores(s.scores, EQUAL_WIDTH, 15)
            members = oracles.equal_width_membership(
                list(s.scores), list(binning.boundaries)
            )
            assert members == list(binning.membership)
            expected_ece, expected_mce = oracles.calibration_gaps(
                list(s.scores), list(s.labels), members, 15
            )
            assert ece(s.scores, s.labels, binning) == pytest.approx(expected_ece, abs=1e-12)
            assert mce(s.scores, s.labels, binning) == pytest.approx(expected_mce, abs=1e-12)

    def test_mismatched_binning_rejected(self):
        s = calibrated_scoreset(30, seed=7)
        other = calibrated_scoreset(40, seed=8)
        with pytest.raises(ValueError, match="different sample set"):
            ece(s.scores, s.labels, bin_scores(other.scores))


class TestMce:
    def test_perfect_predictions(self):
        s = make_scoreset([0.0, 1.0], [0, 1])
        assert mce(s.scores, s.labels, bin_scores(s.scores)) == 0.0

    def test_single_bad_bin_dominates(self):
        # bin around 0.1 is perfectly calibrated; bin around 0.65 gaps by 0.4
        scores = [0.1] * 10 + [0.65] * 4
        labels = [0] * 9 + [1] + [1, 0, 0, 0]
        s = make_scoreset(scores, labels)
        binning = bin_scores(s.scores, EQUAL_WIDTH, 10)
        assert mce(s.scores, s.labels, binning) == pytest.approx(0.4, abs=1e-12)

    def test_mce_at_least_ece(self):
        for seed in range(10):
            s = calibrated_scoreset(200, seed=seed)
            binning = bin_scores(s.scores)
            assert mce(s.scores, s.labels, binning) >= ece(s.scores, s.labels, binning)


class TestAdaEce:
    def test_perfect_predictions(self):
        s = make_scoreset([0.0, 1.0] * 10, [0, 1] * 10)
        assert ada_ece(s.scores, s.labels, 4) == 0.0

    def test_single_bin_reduction(self):
        s = calibrated_scoreset(50, seed=9)
        expected = abs(s.prevalence - s.scores.mean())
        assert ada_ece(s.scores, s.labels, 1) == pytest.approx(expected, abs=1e-12)

    def test_matches_rebinning_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            s = calibrated_scoreset(int(rng.integers(30, 300)), seed=100 + trial)
            members = oracles.equal_count_membership(list(s.scores), 15)
            expected, _ = oracles.calibration_gaps(
                list(s.scores), list(s.labels), members, 15
            )
            assert ada_ece(s.scores, s.labels, 15) == pytest.approx(expected, abs=1e-12)

    def test_shrinks_with_sample_size(self):
        # calibrated scores: the estimator's own bias decays as N grows
        means = []
        for n in (200, 2000, 20000):
            values = []
            for seed in range(60):
                s = calibrated_scoreset(n, seed=seed)
                values.append(ada_ece(s.scores, s.labels, 15))
            means.append(np.mean(values))
        assert means[0] > means[1] > means[2]


class TestProperScoringRules:
    def test_cross_entropy_perfect(self):
        s = make_scoreset([0.0, 1.0], [0, 1])
        assert cross_entropy(s.scores, s.labels, 1e-7) <= 1e-6

    def test_cross_entropy_uninformative(self):
        s = make_scoreset([0.5] * 4, [0, 1, 0, 1])
        assert cross_entropy(s.scores, s.labels, 1e-7) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_cross_entropy_at_clip_boundary(self):
        s = make_scoreset([1.0, 0.0], [0, 1])
        assert cross_entropy(s.scores, s.labels, 1e-7) == pytest.approx(-math.log(1e-7), rel=1e-6)

    def test_cross_entropy_epsilon_validated(self):
        s = make_scoreset([0.5], [1])
        with pytest.raises(ValueError, match="clip_epsilon"):
            cross_entropy(s.scores, s.labels, 0.7)

    def test_brier_perfect(self):
        assert brier(np.array([0.0, 1.0]), np.array([0, 1])) == 0.0

    def test_brier_uninformative(self):
        assert brier(np.array([0.5] * 4), np.array([0, 1, 0, 1])) == 0.25

    def test_brier_inverted(self):
        assert brier(np.array([1.0, 0.0]), np.array([0, 1])) == 1.0

    def test_bounds(self):
        for seed in range(5):
            s = calibrated_scoreset(100, seed=seed)
            binning = bin_scores(s.scores)
            ece_value = ece(s.scores, s.labels, binning)
            assert 0.0 <= ece_value <= mce(s.scores, s.labels, binning) <= 1.0
            assert 0.0 <= brier(s.scores, s.labels) <= 1.0
            assert cross_entropy(s.scores, s.labels, 1e-7) >= 0.0

    def test_permutation_invariance(self):
        s = calibrated_scoreset(150, seed=11)
        perm = np.random.default_rng(0).permutation(s.n)
        shuffled = s.take(perm)
        assert ece(
            shuffled.scores, shuffled.labels, bin_scores(shuffled.scores)
        ) == pytest.approx(ece(s.scores, s.labels, bin_scores(s.scores)), abs=1e-15)
        assert ada_ece(shuffled.scores, shuffled.labels, 15) == pytest.approx(
            ada_ece(s.scores, s.labels, 15), abs=1e-15
        )


class TestSampleSizeBehaviour:
    """Calibrated scores: bin metrics are size-biased, proper scoring rules are not."""

    @staticmethod
    def _per_seed(n, seed):
        s = calibrated_scoreset(n, seed=seed)
        return (
            ece(s.scores, s.labels, bin_scores(s.scores)),
            cross_entropy(s.scores, s.labels, 1e-7),
            brier(s.scores, s.labels),
        )

    def test_mean_ece_strictly_decreasing_in_n(self):
        means = []
        for n in (500, 5_000, 50_000):
            values = [self._per_seed(n, seed)[0] for seed in range(100)]
            means.append(float(np.mean(values)))
        assert means[0] > means[1] > means[2]

    def test_ce_and_brier_stable_across_n(self):
        # means at N=500 and N=50,000 agree within three standard errors
        small = np.array([self._per_seed(500, seed)[1:] for seed in range(100)])
        large = np.array([self._per_seed(50_000, 200 + seed)[1:] for seed in range(100)])
        for column in (0, 1):
            a, b = small[:, column], large[:, column]
            spread = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            assert abs(a.mean() - b.mean()) < 3 * spread


class TestReliabilityCurve:
    def test_single_bin_point(self):
        s = make_scoreset([0.2, 0.4, 0.3], [1, 0, 1])
        points = reliability_curve(s.scores, s.labels, bin_scores(s.scores, EQUAL_COUNT, 1))
        assert len(points) == 1
        assert points[0].mean_score == pytest.approx(0.3)
        assert points[0].positive_rate == pytest.approx(2.0 / 3.0)
        assert points[0].count == 3

    def test_calibrated_points_near_diagonal(self):
        s = calibrated_scoreset(200_000, seed=12)
        points = reliability_curve(s.scores, s.labels, bin_scores(s.scores, EQUAL_WIDTH, 10))
        for p in points:
            assert abs(p.positive_rate - p.mean_score) < 0.02

    def test_empty_bins_excluded(self):
        s = make_scoreset([0.05, 0.95], [0, 1])
        points = reliability_curve(s.scores, s.labels, bin_scores(s.scores, EQUAL_WIDTH, 10))
        assert [p.bin_index for p in points] == [0, 9]

    def test_csv_schema(self):
        s = make_scoreset([0.2, 0.8], [0, 1])
        buffer = io.StringIO()
        points = reliability_curve(s.scores, s.labels, bin_scores(s.scores, EQUAL_WIDTH, 2))
        write_reliability_csv(points, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "bin_index,mean_score,positive_rate,count"
        assert len(lines) == 3
