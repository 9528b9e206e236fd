"""Synthetic score populations with known posteriors and beta-CDF score distortion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .dataset import _SCORE_COLUMNS, ScoreSet, Seed, _score_rows, _write_csv

_CF_MAX_ITERATIONS = 300
_CF_EPS = 1e-15
_CF_FPMIN = 1e-300


@dataclass(frozen=True)
class SyntheticScenario:
    """A de-calibration regime: scores are the beta(alpha, beta) CDF of the posterior."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def name(self) -> str:
        return f"alpha{self.alpha:g}_beta{self.beta:g}"


def _beta_continued_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Modified Lentz evaluation of the continued fraction behind I_x(a, b).

    The loop works in place, in one scratch array and one mask, with each
    expression evaluated in the textbook order (``1 + aa * d``, ``1 + aa / c``,
    ``h * d * c``), so every element gets the bits of the allocating form.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _CF_FPMIN, where=np.abs(d) < _CF_FPMIN)
    d = 1.0 / d
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    aa = np.empty_like(x)
    scratch = np.empty_like(x)
    tiny = np.empty(x.shape, dtype=bool)

    def floor(v: np.ndarray) -> None:
        # v = FPMIN where |v| < FPMIN
        np.less(np.abs(v, out=scratch), _CF_FPMIN, out=tiny)
        np.copyto(v, _CF_FPMIN, where=tiny)

    def step(numerator: float, denominator: float) -> None:
        # aa = numerator * x / denominator; d = 1 / (1 + aa * d); c = 1 + aa / c
        np.divide(np.multiply(x, numerator, out=aa), denominator, out=aa)
        np.add(np.multiply(aa, d, out=d), 1.0, out=d)
        floor(d)
        np.add(np.divide(aa, c, out=c), 1.0, out=c)
        floor(c)
        np.divide(1.0, d, out=d)

    for m in range(1, _CF_MAX_ITERATIONS + 1):
        m2 = 2 * m
        step(m * (b - m), (qam + m2) * (a + m2))
        np.multiply(np.multiply(h, d, out=h), c, out=h)
        step(-(a + m) * (qab + m), (a + m2) * (qap + m2))
        delta = np.multiply(d, c, out=scratch)
        np.multiply(h, delta, out=h)
        np.less(np.abs(np.subtract(delta, 1.0, out=scratch), out=scratch), _CF_EPS, out=tiny)
        converged |= tiny
        if converged.all():
            break
    if not converged.all():
        raise RuntimeError(
            f"incomplete beta continued fraction did not converge for a={a}, b={b}"
        )
    return h


def regularized_incomplete_beta(
    x: float | np.ndarray, alpha: float, beta: float
) -> float | np.ndarray:
    """Regularized incomplete beta function I_x(alpha, beta).

    Evaluated by continued fraction, switching via the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) on the side where the fraction converges
    fast. alpha = beta = 1 returns x exactly (uniform CDF), and the symmetric
    midpoint I_{0.5}(a, a) is pinned to exactly 0.5.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.asarray(x, dtype=np.float64).reshape(-1)
    if xa.size and (xa.min() < 0.0 or xa.max() > 1.0 or not np.all(np.isfinite(xa))):
        raise ValueError("x must lie in [0, 1]")

    if alpha == 1.0 and beta == 1.0:
        out = xa.copy()
    else:
        out = np.empty_like(xa)
        interior = (xa > 0.0) & (xa < 1.0)
        out[xa == 0.0] = 0.0
        out[xa == 1.0] = 1.0
        xi = xa[interior]
        ln_beta = math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta)
        front = np.exp(ln_beta + alpha * np.log(xi) + beta * np.log1p(-xi))
        res = np.empty_like(xi)
        direct = xi < (alpha + 1.0) / (alpha + beta + 2.0)
        if np.any(direct):
            res[direct] = (
                front[direct] * _beta_continued_fraction(alpha, beta, xi[direct]) / alpha
            )
        if np.any(~direct):
            res[~direct] = 1.0 - (
                front[~direct]
                * _beta_continued_fraction(beta, alpha, 1.0 - xi[~direct])
                / beta
            )
        out[interior] = res
        if alpha == beta:
            out[xa == 0.5] = 0.5
        np.clip(out, 0.0, 1.0, out=out)
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(x))


def generate_population(n: int, seed: Seed) -> ScoreSet:
    """Draw posteriors p ~ Uniform(0, 1) and labels ~ Bernoulli(p), i.i.d.

    The set is perfectly calibrated: its scores are the true posteriors.
    """
    if n < 2:
        raise ValueError("population size must be >= 2")
    rng = np.random.default_rng(seed)
    posteriors = rng.random(n)
    labels = rng.binomial(1, posteriors)
    return ScoreSet(scores=posteriors, labels=labels)


def apply_miscalibration(pop: ScoreSet, scenario: SyntheticScenario) -> ScoreSet:
    """Distort a population's true posteriors (its scores) via the scenario's beta CDF.

    The transform is strictly increasing, so rankings (and any ranking metric)
    are unchanged; alpha = beta = 1 leaves the scores perfectly calibrated.
    The distorted set keeps the population's sample ids and group tags.
    """
    return pop._with_scores(
        regularized_incomplete_beta(pop.scores, scenario.alpha, scenario.beta)
    )


def write_population_csv(
    pop: ScoreSet, scenario: SyntheticScenario, dest: str | IO[str]
) -> None:
    """Standard score CSV of the distorted scores plus a true_posterior column."""
    rows = zip(_score_rows(apply_miscalibration(pop, scenario)), pop.scores)
    _write_csv(
        dest, (*_SCORE_COLUMNS, "true_posterior"), (row + [str(p)] for row, p in rows)
    )
