"""Logistic recalibration on log-likelihood ratios and scoring-rule decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import DEFAULT_CLIP_EPSILON, brier, cross_entropy

# the fit's stopping rule: gradient max-norm tolerance and iteration cap
_TOLERANCE = 1e-8
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class PlattParams:
    """Slope/offset of the logistic map sigmoid(a * llr + b) plus fit diagnostics."""

    a: float
    b: float
    iterations: int
    final_gradient_norm: float
    converged: bool


@dataclass(frozen=True)
class DecompositionResult:
    """Proper scoring rules on raw vs recalibrated scores and their gaps.

    ``delta_ce = ce - ce_platt`` and ``delta_brier = brier - brier_platt`` hold
    as exact arithmetic identities.
    """

    ce: float
    ce_platt: float
    delta_ce: float
    brier: float
    brier_platt: float
    delta_brier: float


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With ``e = exp(-|z|)`` this is ``1 / (1 + e)`` for ``z >= 0`` and
    ``e / (1 + e)`` below: per element the same expression as evaluating
    ``1 / (1 + exp(-z))`` and ``exp(z) / (1 + exp(z))`` on the two halves
    separately, from one ``exp`` that cannot overflow.
    """
    z = np.asarray(z, dtype=np.float64)
    return _sigmoid(z, np.exp(-np.abs(z)))


def _sigmoid(
    z: np.ndarray,
    e: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`sigmoid` of ``z`` from its ``e = exp(-|z|)``, written into
    ``out`` with ``1 + e`` in ``scratch`` when they are given.

    ``e <= 1``, so ``max(e, z >= 0)`` is exactly 1.0 for ``z >= 0`` and ``e``
    below, without a select; a NaN ``z`` gives a NaN ``e``, which ``maximum``
    propagates.
    """
    out = np.maximum(e, z >= 0, out=out)
    out /= np.add(e, 1.0, out=scratch)
    return out


def to_llr(
    scores: Sequence[float] | np.ndarray, clip_epsilon: float = DEFAULT_CLIP_EPSILON
) -> np.ndarray:
    """Log-likelihood ratios ln(s / (1 - s)) with scores clamped away from 0/1."""
    if not 0.0 < clip_epsilon < 0.5:
        raise ValueError("clip_epsilon must lie in (0, 0.5)")
    s = np.clip(np.asarray(scores, dtype=np.float64), clip_epsilon, 1.0 - clip_epsilon)
    return np.log(s) - np.log1p(-s)


# a line-search comparison is taken on the vector-form log-likelihoods only if
# it clears its threshold by this much, relative to 1 + |ll| + |new_ll|
_DECISION_MARGIN = 1e-12


def _log_likelihood(
    x: np.ndarray,
    y: np.ndarray,
    a: float,
    b: float,
    z: np.ndarray,
    e: np.ndarray,
    softplus: np.ndarray,
    terms: np.ndarray,
) -> float:
    """The log-likelihood at (a, b). Writes the ``z = a * x + b`` it was taken
    at into ``z`` and the ``e = exp(-|z|)`` that :func:`sigmoid` takes at that
    z into ``e``; ``softplus`` and ``terms`` are scratch.

    ``log(1 + exp(z))`` is ``max(z, 0) + log1p(e)`` in numpy's vector ``exp``
    and ``log1p``, which agree with ``np.logaddexp(0, z)`` only to the last
    digits; :func:`_worse` says when that decides anything.
    """
    np.multiply(a, x, out=z)
    z += b
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=softplus)
    softplus += np.maximum(z, 0.0, out=terms)
    np.multiply(y, z, out=terms)
    terms -= softplus
    # every term is <= 0: a sum past the float range is -inf, a decrease like
    # any other
    with np.errstate(over="ignore"):
        return float(np.add.reduce(terms))


def _exact_log_likelihood(y: np.ndarray, z: np.ndarray) -> float:
    """The log-likelihood at ``z`` summed from ``np.logaddexp(0, z)``."""
    return float(np.sum(y * z - np.logaddexp(0.0, z)))


def _threshold(ll: float) -> float:
    """The log-likelihood below which a step counts as a decrease from ``ll``.

    Near the optimum the true improvement drops below the float resolution of
    the summed log-likelihood; the slack ``1e-10 * (1 + |ll|)`` treats such
    steps as flat.
    """
    return ll - 1e-10 * (1.0 + abs(ll))


def _worse(
    y: np.ndarray, ll: float, z: np.ndarray, new_ll: float, new_z: np.ndarray
) -> bool:
    """Whether the step from ``z`` to ``new_z`` falls below :func:`_threshold`,
    as the sums of ``np.logaddexp(0, z)`` decide it.

    The vector-form values ``ll`` and ``new_ll`` decide when their gap to the
    threshold exceeds ``_DECISION_MARGIN * (1 + |ll| + |new_ll|)``, 1% of the
    slack and over 3000 times the largest difference measured between the two
    forms. Closer calls are recomputed with ``logaddexp``, so every fit takes
    the steps, and returns the bits, of one that sums ``logaddexp``
    throughout. A ``new_ll`` of -inf (a sum past the float range) or NaN counts
    as worse without a recomputation, which would overflow too.
    """
    if not math.isfinite(new_ll):
        return True
    gap = new_ll - _threshold(ll)
    if abs(gap) > _DECISION_MARGIN * (1.0 + abs(ll) + abs(new_ll)):
        return gap < 0.0
    return _exact_log_likelihood(y, new_z) < _threshold(_exact_log_likelihood(y, z))


def _separable(x: np.ndarray, y: np.ndarray) -> bool:
    # fit_platt has checked that y holds only 0s and 1s, so the negatives are
    # the records that are not positive
    positive = y == 1
    pos = np.compress(positive, x)
    neg = np.compress(~positive, x)
    return bool(pos.min() > neg.max() or pos.max() < neg.min())


def fit_platt(
    llrs: Sequence[float] | np.ndarray,
    labels: Sequence[int] | np.ndarray,
) -> PlattParams:
    """Fit sigmoid(a * llr + b) by unweighted maximum likelihood.

    Newton-Raphson from the identity start (a=1, b=0) with step halving on a
    likelihood decrease; converged once the gradient max-norm drops to 1e-8.
    Perfectly separated inputs have no finite optimum: the iteration then
    runs its full 100 iterations and the result is flagged
    ``converged=False`` so the caller can decide. A step that no halving makes
    finite (an infinite slope, or ``a * llr`` overflowing) ends the fit at its
    last finite point, also flagged ``converged=False``.
    """
    x = np.asarray(llrs, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise ValueError("llrs and labels must have equal length")
    if not np.all(np.isfinite(x)):
        raise ValueError("llrs must be finite (clip scores before the LLR transform)")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    if y.min() == y.max():
        raise ValueError("fit_platt needs both label classes present")

    separable = _separable(x, y)
    xx = x * x
    # z = a * x + b rounds monotonically in x, so it is finite for every
    # record when it is finite at the smallest and largest llr
    x_ends = (float(x.min()), float(x.max()))
    a, b = 1.0, 0.0
    # z is always a * x + b at the current (a, b), and e its exp(-|z|); a
    # candidate step writes its own into new_z and new_e, and an accepted one
    # swaps them in, so they are computed from the same floats as the updated
    # a and b. p and scratch hold the other per-record values of an iteration.
    z, e, new_z, new_e, p, scratch = (np.empty(x.size) for _ in range(6))
    ll = _log_likelihood(x, y, a, b, z, e, p, scratch)
    iterations = 0
    gradient_norm = np.inf
    for _ in range(_MAX_ITERATIONS):
        _sigmoid(z, e, out=p, scratch=scratch)
        residual = np.subtract(y, p, out=scratch)
        g_a = float(residual @ x)
        g_b = float(residual.sum())
        gradient_norm = max(abs(g_a), abs(g_b))
        if gradient_norm <= _TOLERANCE and not separable:
            break
        # the Hessian's weights p * (1 - p)
        w = np.subtract(1.0, p, out=scratch)
        w *= p
        h_aa = float(w @ xx)
        h_ab = float(w @ x)
        h_bb = float(w.sum())
        det = h_aa * h_bb - h_ab * h_ab
        if not det > 1e-12 * max(h_aa * h_bb, 1e-300):
            # singular design (e.g. constant llrs): ridge keeps the step finite
            ridge = 1e-8 * max(h_aa, h_bb, 1.0)
            h_aa += ridge
            h_bb += ridge
            det = h_aa * h_bb - h_ab * h_ab
        da = (h_bb * g_a - h_ab * g_b) / det
        db = (h_aa * g_b - h_ab * g_a) / det
        step = 1.0
        halvings = 0
        while True:
            new_a, new_b = a + step * da, b + step * db
            # a candidate whose z is not finite everywhere (a or b not finite,
            # or a * x overflowing) is worse without evaluating it
            worse = not all(math.isfinite(new_a * end + new_b) for end in x_ends)
            if not worse:
                new_ll = _log_likelihood(x, y, new_a, new_b, new_z, new_e, p, scratch)
                worse = _worse(y, ll, z, new_ll, new_z)
            if not worse or halvings == 60:
                break
            step *= 0.5
            halvings += 1
        if worse:
            break
        a, b, ll = new_a, new_b, new_ll
        z, e, new_z, new_e = new_z, new_e, z, e
        iterations += 1
    else:
        residual = y - _sigmoid(z, e)
        gradient_norm = max(abs(float(residual @ x)), abs(float(residual.sum())))

    converged = bool(gradient_norm <= _TOLERANCE and not separable)
    return PlattParams(
        a=float(a),
        b=float(b),
        iterations=iterations,
        final_gradient_norm=float(gradient_norm),
        converged=converged,
    )


def apply_platt(
    params: PlattParams, llrs: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Transform LLRs through the fitted logistic map: sigmoid(a * llr + b)."""
    z = params.a * np.asarray(llrs, dtype=np.float64) + params.b
    return sigmoid(z)


def decompose_psr(
    scores: np.ndarray,
    labels: np.ndarray,
    platt_scores: Sequence[float] | np.ndarray,
    clip_epsilon: float = DEFAULT_CLIP_EPSILON,
) -> DecompositionResult:
    """Split cross-entropy and Brier into discrimination and calibration parts.

    ``platt_scores`` must align one-to-one with the raw ``scores`` and their
    ``labels``; the deltas (raw minus recalibrated) are the calibration
    components of each rule.
    """
    scores = np.asarray(scores, dtype=np.float64)
    platt_scores = np.asarray(platt_scores, dtype=np.float64).reshape(-1)
    if platt_scores.size != scores.size:
        raise ValueError(
            f"platt_scores length {platt_scores.size} does not match the "
            f"{scores.size} records"
        )
    ce_raw = cross_entropy(scores, labels, clip_epsilon)
    ce_platt = cross_entropy(platt_scores, labels, clip_epsilon)
    brier_raw = brier(scores, labels)
    brier_platt = brier(platt_scores, labels)
    return DecompositionResult(
        ce=ce_raw,
        ce_platt=ce_platt,
        delta_ce=ce_raw - ce_platt,
        brier=brier_raw,
        brier_platt=brier_platt,
        delta_brier=brier_raw - brier_platt,
    )
