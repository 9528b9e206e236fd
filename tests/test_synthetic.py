import hashlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calaudit import (
    ScoreSet,
    SyntheticScenario,
    apply_miscalibration,
    balanced_accuracy,
    bin_scores,
    ece,
    generate_population,
    load_scoreset,
    roc_auc,
    write_population_csv,
)
from calaudit import synthetic
from calaudit.synthetic import regularized_incomplete_beta

import oracles


class TestRegularizedIncompleteBeta:
    def test_uniform_identity(self):
        xs = np.linspace(0.0, 1.0, 101)
        np.testing.assert_array_equal(regularized_incomplete_beta(xs, 1.0, 1.0), xs)

    def test_symmetric_midpoint(self):
        for a in (0.5, 1.5, 5.0, 10.0):
            assert regularized_incomplete_beta(0.5, a, a) == 0.5

    def test_quadrature_oracle_at_frozen_point(self):
        expected = oracles.beta_cdf_quadrature(0.25, 5.0, 5.0)
        assert regularized_incomplete_beta(0.25, 5.0, 5.0) == pytest.approx(
            expected, abs=1e-8
        )

    def test_quadrature_oracle_over_grid(self):
        params = (0.5, 1.0, 1.5, 5.0, 10.0)
        xs = np.linspace(0.01, 0.99, 13)
        for a in params:
            for b in params:
                values = regularized_incomplete_beta(xs, a, b)
                for x, v in zip(xs, values):
                    assert v == pytest.approx(
                        oracles.beta_cdf_quadrature(float(x), a, b), abs=1e-8
                    )

    def test_endpoints(self):
        assert regularized_incomplete_beta(0.0, 2.5, 0.7) == 0.0
        assert regularized_incomplete_beta(1.0, 2.5, 0.7) == 1.0

    def test_nondecreasing_in_x(self):
        xs = np.linspace(0.0, 1.0, 500)
        values = regularized_incomplete_beta(xs, 3.3, 0.4)
        assert np.all(np.diff(values) >= 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            regularized_incomplete_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="beta"):
            regularized_incomplete_beta(0.5, 1.0, -2.0)
        with pytest.raises(ValueError, match="x"):
            regularized_incomplete_beta(1.5, 1.0, 1.0)

    def test_inverse_round_trip(self):
        for a, b in ((5.0, 5.0), (1.5, 1.5), (2.0, 0.7)):
            xs = np.linspace(0.05, 0.95, 10)
            qs = regularized_incomplete_beta(xs, a, b)
            back = oracles.inverse_beta_cdf(qs, a, b)
            np.testing.assert_allclose(back, xs, atol=1e-9)


def _continued_fraction_outcome(call):
    """The bytes of ``call()``'s array, or the message of its ``RuntimeError``."""
    try:
        return call().tobytes()
    except RuntimeError as exc:
        return str(exc)


def _floored_start(a: float, b: float) -> float:
    """The x at which the fraction's first ``d = 1 - (a + b) x / (a + 1)`` is
    at or near 0, so it is raised to the 1e-300 floor when it is 0."""
    return min(max((a + 1.0) / (a + b), 1e-9), 1.0 - 1e-9)


@settings(database=None, deadline=None)
@given(
    st.floats(0.1, 20.0),
    st.floats(0.1, 20.0),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=40),
    st.booleans(),
)
@example(1.0, 3.0, [0.5], False)  # d starts at exactly 0
@example(5.0, 5.0, [0.25, 0.5, 1e-300], True)
@example(20.0, 20.0, [0.999], False)  # far past the switch point: slow convergence
def test_continued_fraction_equals_allocating_form(a, b, xs, add_floored):
    """The in-place Lentz loop gives the allocating loop's bits, or its
    non-convergence error, on any (a, b) and x in (0, 1)."""
    if add_floored:
        xs = xs + [_floored_start(a, b)]
    x = np.array(xs, dtype=np.float64)
    expected = _continued_fraction_outcome(
        lambda: oracles.beta_continued_fraction_allocating(a, b, x)
    )
    assert _continued_fraction_outcome(
        lambda: synthetic._beta_continued_fraction(a, b, x)
    ) == expected


def test_continued_fraction_floor_and_error_message(monkeypatch):
    x = np.array([0.5])
    # (a, b) = (1, 3): d starts at 1 - 4 * 0.5 / 2 = 0, raised to the floor
    assert 1.0 - 4.0 * 0.5 / 2.0 == 0.0
    assert synthetic._beta_continued_fraction(1.0, 3.0, x).tobytes() == (
        oracles.beta_continued_fraction_allocating(1.0, 3.0, x).tobytes()
    )
    monkeypatch.setattr(synthetic, "_CF_MAX_ITERATIONS", 2)
    with pytest.raises(RuntimeError) as excinfo:
        synthetic._beta_continued_fraction(5.0, 5.0, np.array([0.3, 0.45]))
    assert str(excinfo.value) == (
        "incomplete beta continued fraction did not converge for a=5.0, b=5.0"
    )
    with pytest.raises(RuntimeError, match=f"^{str(excinfo.value)}$"):
        oracles.beta_continued_fraction_allocating(
            5.0, 5.0, np.array([0.3, 0.45]), max_iterations=2
        )


class TestSyntheticScenario:
    def test_name(self):
        assert SyntheticScenario(1.5, 1.5).name == "alpha1.5_beta1.5"

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            SyntheticScenario(-1.0, 1.0)


class TestGeneratePopulation:
    def test_requested_size(self):
        assert generate_population(1_000_000, seed=0).n == 1_000_000

    def test_prevalence_concentrates_at_half(self):
        population = generate_population(100_000, seed=1)
        assert abs(population.labels.mean() - 0.5) < 0.01

    def test_deterministic(self):
        a = generate_population(1000, seed=2)
        b = generate_population(1000, seed=2)
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_minimum_size(self):
        with pytest.raises(ValueError, match=">= 2"):
            generate_population(1, seed=0)

    @pytest.mark.parametrize(
        "n, seed, scores_sha, labels_sha",
        [
            (2, 0, "1ac5475d8a5e1a447bc7d0705d81919c", "4cbbd8ca5215b8d161aec181a74b694f"),
            (1000, 2, "1e1ebf924e983559aa7ef9db7c9a12dd", "6d0db2840ec843abbeb9b90f6a32d775"),
            # a population of the synthetic experiment at its default size and seed
            (100_000, [101, 4, 1], "3494c1dd846badf280a77a80228f35a7",
             "3f9f3a3b540d2cb97c5619c0f8da4c76"),
        ],
    )
    def test_population_bytes_pinned(self, n, seed, scores_sha, labels_sha):
        # the posteriors and labels of the earlier population record type: a
        # calibrated ScoreSet holds the same draws, as float64 scores and int64 labels
        population = generate_population(n, seed)
        columns = (population.scores, population.labels)
        assert [c.dtype for c in columns] == [np.float64, np.int64]
        digests = [hashlib.sha256(c.tobytes()).hexdigest()[:32] for c in columns]
        assert digests == [scores_sha, labels_sha]


class TestApplyMiscalibration:
    def test_identity_scenario_is_exact(self):
        population = generate_population(5000, seed=3)
        scored = apply_miscalibration(population, SyntheticScenario(1.0, 1.0))
        np.testing.assert_array_equal(scored.scores, population.scores)

    def test_keeps_ids_and_tags_and_shares_labels(self):
        s = ScoreSet(
            scores=[0.2, 0.7], labels=[0, 1], sample_ids=["a", "b"], groups=["x", "y"]
        )
        t = apply_miscalibration(s, SyntheticScenario(2.0, 2.0))
        assert t.sample_ids.tolist() == ["a", "b"] and t.groups.tolist() == ["x", "y"]
        assert t.labels is s.labels and not t.scores.flags.writeable
        population = generate_population(50, seed=2)
        distorted = apply_miscalibration(population, SyntheticScenario(2.0, 2.0))
        assert repr(distorted) == f"ScoreSet(n=50, prevalence={population.prevalence:g})"
        # the default columns stay unrendered
        assert vars(distorted)["_sample_ids"] is None and vars(distorted)["_groups"] is None

    def test_symmetric_scenarios_fix_the_threshold(self):
        population = generate_population(20_000, seed=4)
        base = apply_miscalibration(population, SyntheticScenario(1.0, 1.0))
        for a in (1.5, 5.0):
            distorted = apply_miscalibration(population, SyntheticScenario(a, a))
            np.testing.assert_array_equal(
                distorted.scores >= 0.5, base.scores >= 0.5
            )
            assert balanced_accuracy(
                distorted.scores, distorted.labels, 0.5
            ) == balanced_accuracy(base.scores, base.labels, 0.5)

    def test_ranking_metrics_scenario_invariant(self):
        population = generate_population(20_000, seed=5)
        base = apply_miscalibration(population, SyntheticScenario(1.0, 1.0))
        distorted = apply_miscalibration(population, SyntheticScenario(5.0, 5.0))
        assert roc_auc(distorted.scores, distorted.labels) == pytest.approx(
            roc_auc(base.scores, base.labels), abs=1e-12
        )

    def test_decalibration_raises_large_sample_ece(self):
        population = generate_population(200_000, seed=6)
        calibrated = apply_miscalibration(population, SyntheticScenario(1.0, 1.0))
        distorted = apply_miscalibration(population, SyntheticScenario(5.0, 5.0))
        ece_calibrated = ece(calibrated.scores, calibrated.labels, bin_scores(calibrated.scores))
        ece_distorted = ece(distorted.scores, distorted.labels, bin_scores(distorted.scores))
        assert ece_distorted > 5 * ece_calibrated

    def test_reliability_matches_inverse_transform(self):
        # at a million samples the empirical curve sits on the true-posterior
        # curve: scores in bin (lo, hi] come from p uniform on the inverse
        # image, so the exact positive rate is the midpoint of that interval
        population = generate_population(1_000_000, seed=7)
        distorted = apply_miscalibration(population, SyntheticScenario(5.0, 5.0))
        membership = bin_scores(distorted.scores).membership
        counts, score_sums, label_sums = (
            np.bincount(membership, weights=w, minlength=15)
            for w in (None, distorted.scores, distorted.labels)
        )
        filled = counts > 0
        positive_rate = label_sums[filled] / counts[filled]
        mean_score = score_sums[filled] / counts[filled]
        edges = np.linspace(0, 1, 16)
        lo = oracles.inverse_beta_cdf(edges[:-1][filled], 5.0, 5.0)
        hi = oracles.inverse_beta_cdf(edges[1:][filled], 5.0, 5.0)
        large = counts[filled] >= 1000
        assert np.all(np.abs(positive_rate - (lo + hi) / 2.0)[large] < 0.01)
        # the curve bends away from the diagonal (de-calibration is visible)
        assert np.max(np.abs(positive_rate - mean_score)) > 0.1


class TestPopulationCsv:
    def test_round_trip_with_posterior_column(self):
        population = generate_population(50, seed=8)
        scenario = SyntheticScenario(1.5, 1.5)
        buffer = io.StringIO()
        write_population_csv(population, scenario, buffer)
        header = buffer.getvalue().splitlines()[0]
        assert header == "sample_id,score,label,group,true_posterior"
        buffer.seek(0)
        reloaded = load_scoreset(buffer)  # extra column ignored
        assert reloaded.n == 50
        np.testing.assert_allclose(
            reloaded.scores,
            apply_miscalibration(population, scenario).scores,
            atol=1e-15,
        )
