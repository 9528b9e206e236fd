import numpy as np
import pytest

from calaudit import (
    balanced_accuracy,
    pr_auc,
    pr_auc_gain,
    roc_auc,
)

import oracles
from helpers import calibrated_scoreset, make_scoreset


class TestRocAuc:
    def test_frozen_example(self):
        s = make_scoreset([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert roc_auc(s.scores, s.labels) == 0.75

    def test_perfect_ranking(self):
        s = make_scoreset([0.0, 1.0, 0.0, 1.0], [0, 1, 0, 1])
        assert roc_auc(s.scores, s.labels) == 1.0

    def test_all_ties_is_half(self):
        s = make_scoreset([0.3] * 6, [0, 1, 0, 1, 0, 1])
        assert roc_auc(s.scores, s.labels) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="both label classes"):
            roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(10, 500))
            # quantized scores force ties through the mid-rank path
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            s = make_scoreset(scores, labels)
            assert roc_auc(s.scores, s.labels) == pytest.approx(
                oracles.roc_auc_pairwise(scores, labels), abs=1e-12
            )

    def test_label_flip_complements_without_ties(self):
        rng = np.random.default_rng(3)
        scores = rng.permutation(np.linspace(0.01, 0.99, 40))
        labels = rng.integers(0, 2, 40)
        s = make_scoreset(scores, labels)
        flipped = make_scoreset(scores, 1 - labels)
        assert roc_auc(flipped.scores, flipped.labels) == pytest.approx(
            1.0 - roc_auc(s.scores, s.labels), abs=1e-12
        )


class TestPrAuc:
    def test_perfect_separation(self):
        s = make_scoreset([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert pr_auc(s.scores, s.labels) == 1.0

    def test_all_ties_equals_prevalence(self):
        s = make_scoreset([0.5] * 8, [1, 0, 0, 0, 1, 0, 0, 0])
        assert pr_auc(s.scores, s.labels) == 0.25

    def test_frozen_example_matches_sweep_oracle(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        s = make_scoreset(scores, labels)
        expected = oracles.pr_auc_threshold_sweep(scores, labels)
        assert expected == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert pr_auc(s.scores, s.labels) == pytest.approx(expected, abs=1e-12)

    def test_matches_sweep_oracle_randomized(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(5, 200))
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                continue
            s = make_scoreset(scores, labels)
            assert pr_auc(s.scores, s.labels) == pytest.approx(
                oracles.pr_auc_threshold_sweep(scores, labels), abs=1e-12
            )

    def test_no_positives_raises(self):
        with pytest.raises(ValueError, match="positive"):
            pr_auc(np.array([0.1, 0.2]), np.array([0, 0]))


class TestPrAucGain:
    def test_upper_fixed_point(self):
        s = make_scoreset([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert pr_auc_gain(s.scores, s.labels) == 1.0

    def test_random_guess_baseline(self):
        s = make_scoreset([0.5] * 8, [1, 0, 0, 0, 1, 0, 0, 0])
        assert pr_auc_gain(s.scores, s.labels) == pytest.approx(0.0, abs=1e-15)

    def test_formula_on_derived_instance(self):
        # AP = 5/6 and prevalence 1/2, so the gain is (5/6 - 1/2) / (1/2) = 2/3
        s = make_scoreset([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert pr_auc(s.scores, s.labels) == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert pr_auc_gain(s.scores, s.labels) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_all_positive_raises(self):
        with pytest.raises(ValueError, match="undefined"):
            pr_auc_gain(np.array([0.4, 0.6]), np.array([1, 1]))


class TestBalancedAccuracy:
    def test_perfect_classifier(self):
        s = make_scoreset([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert balanced_accuracy(s.scores, s.labels, 0.5) == 1.0

    def test_all_predicted_positive(self):
        s = make_scoreset([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert balanced_accuracy(s.scores, s.labels, 0.5) == 0.5

    def test_frozen_confusion_example(self):
        s = make_scoreset([0.6, 0.4, 0.7, 0.2], [1, 0, 0, 1])
        assert balanced_accuracy(s.scores, s.labels, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(5)
        scores = rng.random(80)
        labels = rng.integers(0, 2, 80)
        s = make_scoreset(scores, labels)
        assert balanced_accuracy(s.scores, s.labels, 0.4) == pytest.approx(
            oracles.balanced_accuracy_confusion(scores, labels, 0.4), abs=1e-12
        )


class TestMonotoneInvariance:
    def test_increasing_transform_preserves_everything(self):
        s = calibrated_scoreset(300, seed=8)
        # strictly increasing map that fixes 0.5
        transformed = s.with_scores(np.clip(0.5 + 0.4 * (s.scores - 0.5) ** 3 / 0.125, 0, 1))
        for metric in (roc_auc, pr_auc, pr_auc_gain):
            assert metric(transformed.scores, transformed.labels) == pytest.approx(
                metric(s.scores, s.labels), abs=1e-12
            )
        np.testing.assert_array_equal(
            transformed.scores >= 0.5, s.scores >= 0.5
        )
        assert balanced_accuracy(
            transformed.scores, transformed.labels, 0.5
        ) == balanced_accuracy(s.scores, s.labels, 0.5)

