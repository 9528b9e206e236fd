"""Paired nonparametric significance testing and distribution summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

EXACT_ENUMERATION_CUTOFF = 25


class InsufficientPairsError(ValueError):
    """Raised when too few nonzero paired differences remain to run a test."""


@dataclass(frozen=True)
class PairedTestResult:
    statistic: float
    p_value: float
    n_effective: int
    method: str


@dataclass(frozen=True)
class BoxplotSummary:
    mean: float
    median: float
    q1: float
    q3: float
    iqr: float
    n: int


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` from numpy's faster unstable sort.

    Without ties the unstable order is the only ascending one. Otherwise each
    sorted position gets the number of its tie block (NaNs, sorted last, form
    one block), and the keys ``block * n + index`` are unique and ascend by
    block and then by index, so sorting them and subtracting ``block * n``
    puts every tie block back in index order.
    """
    v = np.asarray(values)
    order = np.argsort(v)
    n = order.size
    if n < 2:
        return order
    s = v[order]
    new_block = s[1:] != s[:-1]
    if s[-1] != s[-1]:
        new_block &= (s[1:] == s[1:]) | (s[:-1] == s[:-1])
    if new_block.all():
        return order
    block = np.zeros(n, dtype=np.intp)
    np.cumsum(new_block, out=block[1:])
    block *= n
    return np.sort(block + order) - block


def _tie_bounds(sorted_values: np.ndarray) -> np.ndarray:
    """Bounds of the runs of equal values in an ascending array: run ``k``
    spans positions ``bounds[k]`` up to ``bounds[k + 1]``."""
    change = (sorted_values[1:] != sorted_values[:-1]).nonzero()[0] + 1
    return np.concatenate(([0], change, [sorted_values.size]))


def _block_midranks(bounds: np.ndarray) -> np.ndarray:
    """1-based average ranks of the positions of an ascending array, from its
    tie bounds: tied values share the mean of their positions."""
    starts, ends = bounds[:-1], bounds[1:]
    return ((starts + ends - 1) / 2.0 + 1.0).repeat(ends - starts)


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based average ranks; tied values share the mean of their positions."""
    v = np.asarray(values)
    order = _stable_order(v)
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = _block_midranks(_tie_bounds(v[order]))
    return ranks


@lru_cache(maxsize=128)
def _exact_distribution(doubled_ranks: tuple[int, ...]) -> np.ndarray:
    """Counts of 2*W+ over all sign assignments, read-only.

    Every count is an integer below 2**53, so float64 holds each partial sum
    exactly and the counts do not depend on the order the ranks are folded in;
    callers pass the ranks sorted, so equal rank sets share one cache entry.
    """
    total = sum(doubled_ranks)
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for g in doubled_ranks:
        counts[g:] = counts[g:] + counts[: total + 1 - g]
    counts.setflags(write=False)
    return counts


def wilcoxon_signed_rank(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray
) -> PairedTestResult:
    """Two-sided Wilcoxon signed-rank test for paired samples.

    Conventions: zero differences are discarded, a NaN difference is refused
    (drop non-finite pairs first), absolute differences are mid-ranked, and
    the statistic is ``W = min(W+, W-)``. The p-value is exact (full
    sign-assignment distribution) up to ``n`` of
    :data:`EXACT_ENUMERATION_CUTOFF` nonzero pairs, and otherwise uses the
    normal approximation with tie-corrected variance and continuity correction.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional and equally long")
    d = x - y
    if np.isnan(d).any():
        raise ValueError("paired differences must not be NaN")
    d = d[d != 0.0]
    n = int(d.size)
    if n < 3:
        raise InsufficientPairsError(
            f"insufficient pairs: need >= 3 nonzero differences, got {n}"
        )
    ranks = midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    total = n * (n + 1) / 2.0

    if n <= EXACT_ENUMERATION_CUTOFF:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        counts = _exact_distribution(tuple(np.sort(doubled).tolist()))
        w2 = int(round(2.0 * w))
        total2 = int(doubled.sum())
        p = (counts[: w2 + 1].sum() + counts[total2 - w2 :].sum()) / 2.0**n
        return PairedTestResult(
            statistic=w, p_value=min(1.0, float(p)), n_effective=n, method="exact"
        )

    mu = total / 2.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts))
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    z = max(0.0, abs(w_plus - mu) - 0.5) / math.sqrt(sigma2)
    p = math.erfc(z / math.sqrt(2.0))
    return PairedTestResult(
        statistic=w, p_value=min(1.0, p), n_effective=n, method="normal_approx"
    )


def summarize(
    values: Sequence[float] | np.ndarray, quantile_rule: str = "linear"
) -> BoxplotSummary:
    """Mean, median and quartiles of a sample.

    Quartiles interpolate order statistics with numpy's ``quantile_rule``
    (default ``"linear"``, i.e. positions (k-1)/(n-1)).
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ValueError("summarize needs at least one value")
    if not np.all(np.isfinite(v)):
        raise ValueError("summarize needs finite values")
    q1, med, q3 = np.quantile(v, [0.25, 0.5, 0.75], method=quantile_rule)
    return BoxplotSummary(
        mean=float(v.mean()),
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        iqr=float(q3 - q1),
        n=int(v.size),
    )
