"""Paired nonparametric significance testing and distribution summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

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


def _tie_bounds(sorted_values: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """Bounds of the runs of equal values in an ascending array, or in one
    whose segments ascend, each from one of ``starts`` to the next: run ``k``
    spans positions ``bounds[k]`` up to ``bounds[k + 1]``, and no run crosses
    the start of a segment."""
    edge = np.ones(sorted_values.size + 1, dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=edge[1:-1])
    if starts is not None:
        edge[starts] = True
    return np.flatnonzero(edge)


class _RaggedRows:
    """The segments of a flat array, cut in order at ``lengths``, grouped by
    length, so that each group is one C-contiguous ``(segments, length)``
    block of values, one segment per row, in order.

    A last-axis reduction (``np.add.reduce``, ``mean``, ``quantile``) of such
    a block computes each row exactly as the 1-D call on that segment alone:
    every row is one contiguous inner loop of the same length, with no
    padding, so a pairwise sum sees the same values in the same blocks. That
    is how every reduction whose result depends on the order of its terms is
    batched. Segments that lie next to one another are a view of the values,
    the others a gathered copy.
    """

    def __init__(self, lengths: np.ndarray) -> None:
        self.size = len(lengths)
        groups: dict[int, list[int]] = {}
        starts = []
        at = 0
        for k, n in enumerate(lengths.tolist()):
            starts.append(at)
            at += n
            if n:
                groups.setdefault(n, []).append(k)
        # (segment numbers, length, where their values lie)
        self.groups: list[tuple[list[int], int, slice | np.ndarray]] = []
        for n, which in groups.items():
            first, last = starts[which[0]], starts[which[-1]]
            # each segment ends where the next of its length starts at the
            # earliest, so they lie next to one another exactly when the
            # last starts (count - 1) * length after the first
            if last - first == (len(which) - 1) * n:
                where: slice | np.ndarray = slice(first, last + n)
            else:
                where = np.array([starts[k] for k in which])[:, None] + np.arange(n)
            self.groups.append((which, n, where))

    def blocks(self, values: np.ndarray) -> Iterator[tuple[list[int], np.ndarray]]:
        """Each group's segment numbers and its block of ``values``."""
        values = np.ascontiguousarray(values)
        for which, n, where in self.groups:
            yield which, values[where].reshape(len(which), n)

    def sums(self, values: np.ndarray) -> np.ndarray:
        """``np.add.reduce`` of every segment of ``values``, with the bits of
        the call on that segment alone; 0.0 for an empty segment."""
        sums = np.zeros(self.size)
        for which, block in self.blocks(values):
            sums[which] = np.add.reduce(block, axis=-1)
        return sums


def _undefined(where: np.ndarray, reason: str) -> dict[int, str]:
    """``reason`` under the number of every set where ``where`` is true: the
    errors of a batch kernel, which returns ``(values, errors)``."""
    return dict.fromkeys(np.flatnonzero(where).tolist(), reason)


def _one(result: tuple[np.ndarray, dict[int, str]]) -> float:
    """The value of a batch kernel's ``(values, errors)`` for one set, or the
    ``ValueError`` that says why it is undefined."""
    values, errors = result
    if errors:
        raise ValueError(errors[0])
    return float(values[0])


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


def _equal_size_tests(d: np.ndarray) -> list[PairedTestResult]:
    """The signed-rank test of every row of ``d``, rows of ``n >= 3`` nonzero
    differences each."""
    n = d.shape[1]
    magnitude = np.abs(d)
    order = np.argsort(magnitude, axis=1, kind="stable")
    s = np.take_along_axis(magnitude, order, axis=1)
    positive = np.take_along_axis(d, order, axis=1) > 0
    # a tie block ends at every edge: first and last sorted position of each
    # position's block, whose mid-rank is their mean, 1-based
    edge = np.ones((len(d), n + 1), dtype=bool)
    edge[:, 1:-1] = s[:, 1:] != s[:, :-1]
    position = np.arange(n)
    first = np.maximum.accumulate(np.where(edge[:, :-1], position, 0), axis=1)
    last = np.minimum.accumulate(np.where(edge[:, 1:], position, n - 1)[:, ::-1], axis=1)
    last = last[:, ::-1]
    ranks = (first + last) / 2.0 + 1.0
    w_plus = np.where(positive, ranks, 0.0).sum(axis=1)
    statistic = np.minimum(w_plus, np.where(positive, 0.0, ranks).sum(axis=1))
    if n <= EXACT_ENUMERATION_CUTOFF:
        method = "exact"
        # a row's doubled ranks, ascending, are the key of its exact null; the
        # counts are exact integers, so both tail sums are exact in any order
        nulls = np.stack(
            [_exact_distribution(tuple(key)) for key in (first + last + 2).tolist()]
        )
        w2 = np.rint(2.0 * statistic)[:, None]
        at = np.arange(nulls.shape[1])
        lower = np.where(at <= w2, nulls, 0.0).sum(axis=1)
        upper = np.where(at >= n * (n + 1) - w2, nulls, 0.0).sum(axis=1)
        p_values = ((lower + upper) / 2.0**n).tolist()
    else:
        method = "normal_approx"
        mu = n * (n + 1) / 2.0 / 2.0
        # a tie block of t records adds t**3 - t, that is t**2 - 1 at each of its positions
        tied = (last - first + 1).astype(np.float64)
        tie_terms = (tied**2 - 1.0).sum(axis=1).tolist()
        p_values = []
        for wp, tie_term in zip(w_plus.tolist(), tie_terms):
            sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
            z = max(0.0, abs(wp - mu) - 0.5) / math.sqrt(sigma2)
            p_values.append(math.erfc(z / math.sqrt(2.0)))
    return [
        PairedTestResult(statistic=w, p_value=min(1.0, p), n_effective=n, method=method)
        for w, p in zip(statistic.tolist(), p_values)
    ]


def _signed_rank_tests(
    diffs: np.ndarray,
) -> list[PairedTestResult | InsufficientPairsError]:
    """The two-sided Wilcoxon signed-rank test of every row of ``diffs``.

    A NaN entry is a missing pair and a zero difference is discarded. Rows
    with the same number ``n`` of remaining differences are tested together:
    one stable argsort of their absolute values per row gives the tie blocks,
    each sorted position's mid-rank is the mean of its block's positions, and
    W+ and W- are masked row sums. Mid-ranks are half-integers, which float64
    adds exactly in any order, so each row gets the bits of a test of that
    row alone. A row with fewer than 3 differences gets the
    :class:`InsufficientPairsError` a test of it would raise.
    """
    kept = (diffs != 0.0) & ~np.isnan(diffs)
    sizes = kept.sum(axis=1)
    out: list = [None] * len(diffs)
    for n in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == n)
        if n < 3:
            results = [
                InsufficientPairsError(
                    f"insufficient pairs: need >= 3 nonzero differences, got {n}"
                )
                for _ in rows
            ]
        else:
            results = _equal_size_tests(diffs[rows][kept[rows]].reshape(-1, n))
        for row, result in zip(rows.tolist(), results):
            out[row] = result
    return out


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
    (result,) = _signed_rank_tests(d.reshape(1, -1))
    if isinstance(result, InsufficientPairsError):
        raise result
    return result


def _summaries(rows: np.ndarray, quantile_rule: str) -> list[BoxplotSummary | None]:
    """The summary of the values of every row of ``rows``, NaN entries left
    out, or ``None`` for a row of NaNs only.

    Rows with the same number of values are summarized together, in one
    block of :class:`_RaggedRows`, so every row gets the bits of its own
    summary.
    """
    if np.isinf(rows).any():
        raise ValueError("summarize needs finite values")
    present = ~np.isnan(rows)
    out: list = [None] * len(rows)
    for which, block in _RaggedRows(present.sum(axis=1)).blocks(rows[present]):
        n = block.shape[1]
        quartiles = np.quantile(block, [0.25, 0.5, 0.75], axis=-1, method=quantile_rule)
        q1, med, q3 = quartiles.tolist()
        iqr = (quartiles[2] - quartiles[0]).tolist()
        mean = block.mean(axis=-1).tolist()
        for k, row in enumerate(which):
            out[row] = BoxplotSummary(
                mean=mean[k], median=med[k], q1=q1[k], q3=q3[k], iqr=iqr[k], n=n
            )
    return out


def summarize(
    values: Sequence[float] | np.ndarray, quantile_rule: str = "linear"
) -> BoxplotSummary:
    """Mean, median and quartiles of a sample.

    Quartiles interpolate order statistics with numpy's ``quantile_rule``
    (default ``"linear"``, i.e. positions (k-1)/(n-1)).
    """
    v = np.asarray(values, dtype=np.float64).reshape(1, -1)
    if v.size == 0:
        raise ValueError("summarize needs at least one value")
    if np.isnan(v).any():
        raise ValueError("summarize needs finite values")
    return _summaries(v, quantile_rule)[0]
