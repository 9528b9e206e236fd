"""Logistic recalibration on log-likelihood ratios and scoring-rule decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import DEFAULT_CLIP_EPSILON, brier, cross_entropy

DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_ITERATIONS = 100


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
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def to_llr(
    scores: Sequence[float] | np.ndarray, clip_epsilon: float = DEFAULT_CLIP_EPSILON
) -> np.ndarray:
    """Log-likelihood ratios ln(s / (1 - s)) with scores clamped away from 0/1."""
    if not 0.0 < clip_epsilon < 0.5:
        raise ValueError("clip_epsilon must lie in (0, 0.5)")
    s = np.clip(np.asarray(scores, dtype=np.float64), clip_epsilon, 1.0 - clip_epsilon)
    return np.log(s) - np.log1p(-s)


def _log_likelihood(
    x: np.ndarray, y: np.ndarray, a: float, b: float
) -> tuple[float, np.ndarray]:
    """The log-likelihood at (a, b), and the ``z = a * x + b`` it was taken at."""
    z = a * x + b
    return float(np.sum(y * z - np.logaddexp(0.0, z))), z


def _separable(x: np.ndarray, y: np.ndarray) -> bool:
    pos = x[y == 1]
    neg = x[y == 0]
    return bool(pos.min() > neg.max() or pos.max() < neg.min())


def fit_platt(
    llrs: Sequence[float] | np.ndarray,
    labels: Sequence[int] | np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> PlattParams:
    """Fit sigmoid(a * llr + b) by unweighted maximum likelihood.

    Newton-Raphson from the identity start (a=1, b=0) with step halving on a
    likelihood decrease; converged once the gradient max-norm drops to
    ``tolerance``. Perfectly separated inputs have no finite optimum: the
    iteration then runs to ``max_iterations`` and the result is flagged
    ``converged=False`` so the caller can decide.
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
    a, b = 1.0, 0.0
    # z is always a * x + b at the current (a, b): the line search returns the
    # z it accepted, computed from the same floats as the updated a and b
    ll, z = _log_likelihood(x, y, a, b)
    iterations = 0
    gradient_norm = np.inf
    for _ in range(max_iterations):
        p = sigmoid(z)
        residual = y - p
        g_a = float(residual @ x)
        g_b = float(residual.sum())
        gradient_norm = max(abs(g_a), abs(g_b))
        if gradient_norm <= tolerance and not separable:
            break
        w = p * (1.0 - p)
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
        # near the optimum the true improvement drops below the float
        # resolution of the summed log-likelihood; treat such steps as flat
        slack = 1e-10 * (1.0 + abs(ll))
        step = 1.0
        new_ll, new_z = _log_likelihood(x, y, a + da, b + db)
        halvings = 0
        while new_ll < ll - slack and halvings < 60:
            step *= 0.5
            halvings += 1
            new_ll, new_z = _log_likelihood(x, y, a + step * da, b + step * db)
        if new_ll < ll - slack:
            break
        a += step * da
        b += step * db
        ll, z = new_ll, new_z
        iterations += 1
    else:
        residual = y - sigmoid(z)
        gradient_norm = max(abs(float(residual @ x)), abs(float(residual.sum())))

    converged = bool(gradient_norm <= tolerance and not separable)
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
