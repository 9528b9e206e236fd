import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calaudit import (
    apply_platt,
    cross_entropy,
    decompose_psr,
    fit_platt,
    pr_auc,
    pr_auc_gain,
    roc_auc,
    to_llr,
)
from calaudit import platt
from calaudit.platt import PlattParams, sigmoid

import oracles
from helpers import calibrated_scoreset, counted, make_scoreset

# signed zeros, values where exp under- or overflows, subnormals and NaN
_EDGE_Z = (
    0.0, -0.0, 800.0, -800.0, 709.8, -709.8, 745.2, -745.2,
    5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, np.inf, -np.inf, np.nan,
)


@settings(database=None, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(_EDGE_Z), st.floats(allow_nan=False)),
        min_size=1,
        max_size=40,
    )
)
def test_sigmoid_equals_the_two_branch_form(values):
    z = np.array(values)
    got = sigmoid(z)
    # NaN stays NaN; its sign bit is not compared
    nan = np.isnan(z)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == oracles.sigmoid_two_branch(z[~nan]).tobytes()


class TestToLlr:
    def test_midpoint_is_zero(self):
        assert to_llr(np.array([0.5]))[0] == 0.0

    def test_analytic_value(self):
        assert to_llr(np.array([0.9]))[0] == pytest.approx(math.log(9.0), abs=1e-12)

    def test_clip_boundary(self):
        assert to_llr(np.array([0.0]), 1e-7)[0] == pytest.approx(
            math.log(1e-7) - math.log1p(-1e-7), rel=1e-9
        )

    def test_round_trip_interior(self):
        scores = np.linspace(0.01, 0.99, 99)
        back = sigmoid(to_llr(scores))
        np.testing.assert_allclose(back, scores, atol=1e-12)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError, match="clip_epsilon"):
            to_llr(np.array([0.5]), 0.9)


class TestFitPlatt:
    def test_parameter_recovery(self):
        rng = np.random.default_rng(3)
        llrs = to_llr(rng.random(50_000))
        labels = rng.binomial(1, sigmoid(2.0 * llrs - 1.0))
        params = fit_platt(llrs, labels)
        assert params.converged
        assert 1.95 <= params.a <= 2.05
        assert -1.05 <= params.b <= -0.95

    def test_identity_recovery_on_calibrated_scores(self):
        rng = np.random.default_rng(11)
        scores = rng.random(50_000)
        labels = rng.binomial(1, scores)
        params = fit_platt(to_llr(scores), labels)
        assert params.converged
        assert abs(params.a - 1.0) <= 0.05
        assert abs(params.b) <= 0.05

    def test_constant_llrs_fit_base_rate(self):
        llrs = np.full(100, 0.7)
        labels = np.array([1] * 30 + [0] * 70)
        params = fit_platt(llrs, labels)
        fitted = apply_platt(params, np.array([0.7]))[0]
        assert fitted == pytest.approx(0.3, abs=1e-6)
        assert params.final_gradient_norm <= 1e-6

    def test_separable_flags_non_convergence(self):
        params = fit_platt(np.array([-2.0, -1.0, 1.0, 2.0]), np.array([0, 0, 1, 1]))
        assert not params.converged
        assert params.iterations == 100

    def test_converged_implies_small_gradient(self):
        s = calibrated_scoreset(5000, seed=0)
        params = fit_platt(to_llr(s.scores), s.labels)
        assert params.converged
        assert params.final_gradient_norm <= 1e-8

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both label classes"):
            fit_platt(np.array([0.1, 0.2, 0.3]), np.array([1, 1, 1]))

    @pytest.mark.parametrize("bad", [2.0, np.nan])
    def test_labels_other_than_zero_or_one_rejected(self, bad):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            fit_platt(np.array([0.1, 0.2, 0.3]), np.array([0.0, 1.0, bad]))

    def test_negative_zero_label_accepted(self):
        llrs = np.array([-1.0, 0.5, 0.2, 1.5, -0.3])
        assert fit_platt(llrs, np.array([-0.0, 1.0, 0.0, 1.0, 1.0])) == fit_platt(
            llrs, np.array([0, 1, 0, 1, 1])
        )

    def test_non_finite_llrs_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_platt(np.array([0.0, np.inf]), np.array([0, 1]))


# ties that overlap only in a few records, as the tie generator of
# _platt_inputs draws them at llr scale 16: Newton's second step sends the
# slope to inf, where the reference fit ends at a = b = nan
_DIVERGING = counted(
    {-48: (0, 8), -32: (0, 5), -16: (0, 8), 0: (4, 0), 16: (4, 1), 32: (5, 0), 48: (5, 0)}
)


def _golden_fit_input(name):
    if name == "calibrated":
        rng = np.random.default_rng(20231)
        scores = rng.random(4000)
        return to_llr(scores), rng.binomial(1, scores)
    if name == "distorted":
        rng = np.random.default_rng(20232)
        llrs = to_llr(rng.random(4000))
        return llrs, rng.binomial(1, 1.0 / (1.0 + np.exp(-(2.5 * llrs - 0.75))))
    if name == "diverging":
        return _DIVERGING
    return np.full(100, 0.7), np.array([1] * 30 + [0] * 70)


# (repr(a), repr(b), iterations, repr(final_gradient_norm), converged), as the
# fit gave them with the two-branch sigmoid and a z recomputed every iteration;
# the diverging fit stops at its last finite point (pytest turns numpy
# warnings into errors, so the infinite step is never evaluated)
_GOLDEN_FITS = {
    "calibrated": ("0.9914549212465287", "0.011679524226005114", 3, "5.1514348342607263e-14", True),
    "distorted": ("2.346542585457911", "-0.6716440110517925", 6, "1.609379296496627e-12", True),
    "constant": ("0.27308156492705626", "-1.0384549558356337", 4, "1.0685785589714669e-11", True),
    "diverging": ("-45.28355992132778", "-0.00017371511751767632", 1, "16.0", False),
}


def _pinned(params):
    return (
        repr(params.a),
        repr(params.b),
        params.iterations,
        repr(params.final_gradient_norm),
        params.converged,
    )


@pytest.mark.parametrize("name", sorted(_GOLDEN_FITS))
def test_fit_platt_golden_params(name):
    assert _pinned(fit_platt(*_golden_fit_input(name))) == _GOLDEN_FITS[name]


@pytest.mark.parametrize("name", sorted(_GOLDEN_FITS))
def test_golden_params_hold_with_every_decision_on_logaddexp(name, monkeypatch):
    exact_calls = []
    exact = platt._exact_log_likelihood
    monkeypatch.setattr(platt, "_DECISION_MARGIN", np.inf)
    monkeypatch.setattr(
        platt, "_exact_log_likelihood", lambda y, z: exact_calls.append(1) or exact(y, z)
    )
    assert _pinned(fit_platt(*_golden_fit_input(name))) == _GOLDEN_FITS[name]
    assert exact_calls


@st.composite
def _platt_inputs(draw):
    """Valid (llrs, labels) built to stress the line search: tied, constant and
    widely spread llrs, separable sets and a lone positive."""
    n = draw(st.integers(2, 5000))
    kind = draw(st.sampled_from(["random", "ties", "constant", "separable", "one_positive"]))
    scale = draw(st.sampled_from([1e-3, 1.0, 5.0, 16.0, 60.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        llrs = scale * rng.integers(-3, 4, n).astype(np.float64)
    elif kind == "constant":
        llrs = np.full(n, scale * rng.normal())
    else:
        llrs = scale * rng.normal(size=n)
    if kind == "separable":
        labels = (llrs > np.median(llrs)).astype(np.int64)
    elif kind == "one_positive":
        labels = np.zeros(n, dtype=np.int64)
    else:
        labels = rng.binomial(1, oracles.sigmoid_two_branch(draw(st.floats(-3, 3)) * llrs))
    # both classes present, as fit_platt requires
    labels[rng.integers(n)] = 1
    if labels.all():
        labels[0] = 0
    return llrs, labels


# one and a half times the profile's example count: 150 in tier-1, ten times
# that under --hypothesis-profile=ci
@settings(database=None, deadline=None, max_examples=3 * settings.default.max_examples // 2)
@given(_platt_inputs())
@example(_DIVERGING)
def test_fit_platt_equals_the_logaddexp_fit(data):
    llrs, labels = data
    params = fit_platt(llrs, labels)
    # ties that overlap only at one llr can drive the oracle's slope to a z that
    # overflows, whose NaN log-likelihood it accepts, and on to NaN (or to a
    # finite slope past 1e306); fit_platt stops at its last finite point instead
    with np.errstate(all="ignore"):
        *expected, took_nan = oracles.fit_platt_logaddexp(llrs, labels)
    if took_nan:
        assert math.isfinite(params.a) and math.isfinite(params.b)
        assert not params.converged
        return
    got = [params.a, params.b, params.iterations, params.final_gradient_norm, params.converged]
    assert repr(got) == repr(expected)


@settings(database=None, deadline=None)
@given(_platt_inputs())
# the classes meet at one llr: pos.min() == neg.max(), and the mirror case
@example((np.array([0.0, 1.0, 1.0, 2.0]), np.array([0, 0, 1, 1])))
@example((np.array([2.0, 1.0, 1.0, 0.0]), np.array([0, 0, 1, 1])))
@example((np.array([-0.0, 0.0]), np.array([1, 0])))
@example((np.array([-1.0, 1.0, -1.0]), np.array([1, 0, 1])))
def test_separable_equals_the_masked_form(data):
    llrs, labels = data
    y = labels.astype(np.float64)
    assert platt._separable(llrs, y) is oracles.separable_masked(llrs, y)


class TestApplyPlatt:
    def test_identity_round_trip(self):
        params = PlattParams(a=1.0, b=0.0, iterations=0, final_gradient_norm=0.0, converged=True)
        scores = np.linspace(0.05, 0.95, 19)
        out = apply_platt(params, to_llr(scores))
        np.testing.assert_allclose(out, scores, atol=1e-12)

    def test_zero_slope_is_constant(self):
        params = PlattParams(a=0.0, b=0.4, iterations=0, final_gradient_norm=0.0, converged=True)
        out = apply_platt(params, np.array([-5.0, 0.0, 5.0]))
        np.testing.assert_allclose(out, sigmoid(np.array([0.4]))[0])

    def test_positive_slope_preserves_discrimination(self):
        s = calibrated_scoreset(500, seed=4)
        params = PlattParams(a=1.7, b=-0.3, iterations=0, final_gradient_norm=0.0, converged=True)
        transformed = apply_platt(params, to_llr(s.scores))
        for metric in (roc_auc, pr_auc, pr_auc_gain):
            assert metric(transformed, s.labels) == pytest.approx(
                metric(s.scores, s.labels), abs=1e-12
            )

    def test_outputs_strictly_inside_unit_interval(self):
        params = PlattParams(a=2.0, b=0.0, iterations=0, final_gradient_norm=0.0, converged=True)
        out = apply_platt(params, np.array([-16.2, 16.2]))
        assert 0.0 < out[0] < out[1] < 1.0


class TestDecomposePsr:
    def test_identity_transform_gives_zero_deltas(self):
        s = calibrated_scoreset(300, seed=5)
        result = decompose_psr(s.scores, s.labels, s.scores)
        assert result.delta_ce == 0.0
        assert result.delta_brier == 0.0

    def test_deltas_are_exact_differences(self):
        s = calibrated_scoreset(300, seed=6)
        params = fit_platt(to_llr(s.scores), s.labels)
        platt_scores = apply_platt(params, to_llr(s.scores))
        result = decompose_psr(s.scores, s.labels, platt_scores)
        assert result.delta_ce == result.ce - result.ce_platt
        assert result.delta_brier == result.brier - result.brier_platt

    def test_in_sample_fit_cannot_worsen_ce(self):
        # identity lies in the hypothesis class, so the in-sample MLE can only help
        for seed in range(5):
            rng = np.random.default_rng(seed)
            scores = rng.random(2000)
            labels = rng.binomial(1, np.clip(scores * 0.8 + 0.1, 0, 1))
            s = make_scoreset(scores, labels)
            params = fit_platt(to_llr(s.scores), s.labels)
            platt_scores = apply_platt(params, to_llr(s.scores))
            assert decompose_psr(s.scores, s.labels, platt_scores).delta_ce >= -1e-6

    def test_decalibrated_scores_yield_material_delta(self):
        from calaudit import SyntheticScenario, apply_miscalibration, generate_population

        population = generate_population(60_000, seed=7)
        scored = apply_miscalibration(population, SyntheticScenario(5.0, 5.0))
        validation = scored.take(np.arange(0, 30_000))
        test = scored.take(np.arange(30_000, 60_000))
        params = fit_platt(to_llr(validation.scores), validation.labels)
        platt_scores = apply_platt(params, to_llr(test.scores))
        result = decompose_psr(test.scores, test.labels, platt_scores)
        assert result.delta_ce > 0.05
        assert result.ce_platt < result.ce

    def test_length_mismatch_rejected(self):
        s = calibrated_scoreset(10, seed=8)
        with pytest.raises(ValueError, match="does not match"):
            decompose_psr(s.scores, s.labels, np.full(9, 0.5))

    def test_raw_ce_matches_module_metric(self):
        s = calibrated_scoreset(50, seed=9)
        result = decompose_psr(s.scores, s.labels, s.scores, clip_epsilon=1e-7)
        assert result.ce == cross_entropy(s.scores, s.labels, 1e-7)
