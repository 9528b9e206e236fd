import io

import numpy as np
import pytest

from calaudit import (
    SyntheticScenario,
    apply_miscalibration,
    balanced_accuracy,
    bin_scores,
    ece,
    generate_population,
    inverse_beta_cdf,
    load_scoreset,
    reliability_curve,
    regularized_incomplete_beta,
    roc_auc,
    write_population_csv,
)

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
            back = inverse_beta_cdf(qs, a, b)
            np.testing.assert_allclose(back, xs, atol=1e-9)


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
        np.testing.assert_array_equal(a.true_posteriors, b.true_posteriors)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_minimum_size(self):
        with pytest.raises(ValueError, match=">= 2"):
            generate_population(1, seed=0)


class TestApplyMiscalibration:
    def test_identity_scenario_is_exact(self):
        population = generate_population(5000, seed=3)
        scored = apply_miscalibration(population, SyntheticScenario(1.0, 1.0))
        np.testing.assert_array_equal(scored.scores, population.true_posteriors)

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
        binning = bin_scores(distorted.scores)
        points = reliability_curve(distorted.scores, distorted.labels, binning)
        for p in points:
            if p.count < 1000:
                continue
            lo = inverse_beta_cdf(float(binning.boundaries[p.bin_index]), 5.0, 5.0)
            hi = inverse_beta_cdf(float(binning.boundaries[p.bin_index + 1]), 5.0, 5.0)
            assert abs(p.positive_rate - (lo + hi) / 2.0) < 0.01
            # the curve bends away from the diagonal (de-calibration is visible)
        gaps = [abs(p.positive_rate - p.mean_score) for p in points]
        assert max(gaps) > 0.1


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
