"""Bin-based calibration errors and proper scoring rules.

Every estimator takes a set's ``scores`` and ``labels`` as arrays, as a
:class:`~calaudit.dataset.ScoreSet` holds them: non-empty, of equal length,
scores in [0, 1] and labels 0 or 1. They are not checked again here.

The bin kernels evaluate many sets at once, and a single set is the case of
one: every bin sum of every set comes from one ``np.bincount`` over the
records of all the sets, each set's bins offset by ``n_bins``, and bincount
adds each bin's records in record order, as a call on that set alone does.
The ECE's sum over a set's occupied bins depends on the order of its terms,
so it is taken row-wise on sets with equal numbers of occupied bins
(``stats._RaggedRows``), with the bits of the 1-D sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import _RaggedRows, _stable_order

EQUAL_WIDTH = "equal_width"
EQUAL_COUNT = "equal_count"

DEFAULT_N_BINS = 15
DEFAULT_CLIP_EPSILON = 1e-7


@dataclass(frozen=True)
class Binning:
    """The bin index of every sample, under ``scheme`` with ``n_bins`` bins.

    Equal-width bins are right-closed at ``i / n_bins`` (bin 0 also holds 0).
    Equal-count bins follow each sample's position in the stable sort of the
    scores, so tied scores may fall into different bins.
    """

    scheme: str
    n_bins: int
    membership: np.ndarray

    def __post_init__(self) -> None:
        if self.scheme not in (EQUAL_WIDTH, EQUAL_COUNT):
            raise ValueError(f"unknown binning scheme {self.scheme!r}")
        membership = np.array(self.membership, dtype=np.int64, copy=True).reshape(-1)
        if membership.min() < 0 or membership.max() >= self.n_bins:
            raise ValueError("membership indices out of range")
        membership.setflags(write=False)
        object.__setattr__(self, "membership", membership)


def _equal_width_bins(scores: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width bin index of every score: right-closed, bin 0 also holds 0.

    The index is the number of inner edges ``linspace(0, 1, n_bins + 1)[1:-1]``
    below the score, as ``np.searchsorted(inner, scores, side="left")`` counts
    them, without a search. ``floor(s * n_bins)``, clamped to the bins, is
    within one bin of it: the product and the edges are each within a few ulps
    of ``s * n_bins`` and ``i / n_bins``, far less than a bin apart. One
    comparison with the guessed bin's lower edge and one with its upper edge
    then move it down or up to the exact count. Bin 0 has no lower edge and
    the last bin no upper one; a NaN edge compares false, so neither moves a
    guess out of range. Scores outside [0, 1] land in the first or last bin,
    as the search puts them, and so does NaN: ``fmin`` sends it to the last
    bin, where the search sorts NaN, and every comparison keeps it there.
    """
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    lower, upper = edges[:-1], edges[1:]
    lower[0] = upper[-1] = np.nan
    # a score whose product with n_bins passes the float range gives inf: the
    # last bin; out= keeps a 0-d input an array for the in-place steps
    with np.errstate(over="ignore"):
        bins = np.multiply(scores, n_bins, out=np.empty(np.shape(scores)))
    np.fmin(bins, n_bins - 1, out=bins)
    np.fmax(bins, 0.0, out=bins)
    bins = bins.astype(np.intp)
    bins -= scores <= lower.take(bins)
    bins += scores > upper.take(bins)
    return bins


def _equal_count_bins(positions: np.ndarray, sizes: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-count bin of every record of sets laid one after another, each
    in the stable order of its scores: ``positions`` are the records'
    positions in that layout and ``sizes`` the sets' sizes, and set ``k``'s
    bins are numbered from ``k * n_bins``. Each set's positions are split
    into runs as ``np.array_split`` splits them, larger first, and a record's
    bin is gathered from the bin of every position. A set smaller than
    ``n_bins`` (refused by the callers, see :func:`_too_few_for_equal_count`)
    gets one record per bin."""
    base, extras = np.divmod(sizes, n_bins)
    # each set's first `extras` bins hold base + 1 positions each, the rest base
    counts = base[:, None] + (np.arange(n_bins) < extras[:, None])
    return np.repeat(np.arange(counts.size), counts.ravel())[positions]


def _too_few_for_equal_count(sizes: np.ndarray, n_bins: int) -> dict[int, str]:
    """The reason, under each set's number, that equal-count binning refuses
    a set smaller than ``n_bins``."""
    small = np.flatnonzero(sizes < n_bins)
    return {
        k: f"equal_count binning needs at least n_bins={n_bins} samples, got {n}"
        for k, n in zip(small.tolist(), sizes[small].tolist())
    }


def bin_scores(
    scores: np.ndarray, scheme: str = EQUAL_WIDTH, n_bins: int = DEFAULT_N_BINS
) -> Binning:
    """Assign every sample to one of ``n_bins`` bins.

    equal_width: bins right-closed at i/n_bins, except the first, which also
    contains 0. equal_count: samples are stable-sorted by score and split into
    contiguous runs whose sizes differ by at most one (larger runs first).
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if scheme == EQUAL_WIDTH:
        return Binning(EQUAL_WIDTH, n_bins, _equal_width_bins(scores, n_bins))
    if scheme == EQUAL_COUNT:
        n = scores.size
        too_few = _too_few_for_equal_count(np.array([n]), n_bins)
        if too_few:
            raise ValueError(too_few[0])
        membership = np.empty(n, dtype=np.int64)
        membership[_stable_order(scores)] = _equal_count_bins(
            np.arange(n), np.array([n]), n_bins
        )
        return Binning(EQUAL_COUNT, n_bins, membership)
    raise ValueError(f"unknown binning scheme {scheme!r}")


Gaps = tuple[np.ndarray, np.ndarray]


def _bin_gaps(
    bins: np.ndarray, scores: np.ndarray, labels: np.ndarray, n_sets: int, n_bins: int
) -> Gaps:
    """Per set and bin (``(n_sets, n_bins)`` arrays): the record count and
    |positive rate - mean score|, 0 for an empty bin, from per-bin sums
    accumulated in record order. ``bins`` is each record's set times
    ``n_bins`` plus its bin."""
    size = n_sets * n_bins
    counts = np.bincount(bins, minlength=size)
    score_sums = np.bincount(bins, weights=scores, minlength=size)
    # bincount casts integer weights to float64, so labels need no copy
    label_sums = np.bincount(bins, weights=labels, minlength=size)
    gaps = np.abs(label_sums - score_sums) / np.maximum(counts, 1)
    return counts.reshape(n_sets, n_bins), gaps.reshape(n_sets, n_bins)


def _binned_gaps(scores, labels, binning: Binning) -> Gaps:
    scores = np.asarray(scores, dtype=np.float64)
    if binning.membership.size != scores.size:
        raise ValueError("binning was built over a different sample set")
    return _bin_gaps(binning.membership, scores, np.asarray(labels), 1, binning.n_bins)


def _ece(gaps: Gaps) -> np.ndarray:
    """Every set's count-weighted mean gap over its occupied bins."""
    counts, gap = gaps
    occupied = counts > 0
    weighted = (counts * gap)[occupied]
    return _RaggedRows(occupied.sum(axis=1)).sums(weighted) / counts.sum(axis=1)


def _mce(gaps: Gaps) -> np.ndarray:
    """Every set's largest gap; an empty bin's gap of 0 is never above it."""
    return gaps[1].max(axis=1)


def ece(scores: np.ndarray, labels: np.ndarray, binning: Binning) -> float:
    """Expected calibration error: count-weighted mean |positive rate - mean score|.

    Confidence is the mean score within a bin, not the bin midpoint; empty
    bins contribute zero.
    """
    return float(_ece(_binned_gaps(scores, labels, binning))[0])


def mce(scores: np.ndarray, labels: np.ndarray, binning: Binning) -> float:
    """Maximum calibration error over non-empty bins."""
    return float(_mce(_binned_gaps(scores, labels, binning))[0])


def ada_ece(
    scores: np.ndarray, labels: np.ndarray, n_bins: int = DEFAULT_N_BINS
) -> float:
    """Adaptive ECE: the expected calibration error over equal-count bins."""
    return ece(scores, labels, bin_scores(scores, EQUAL_COUNT, n_bins))


def _log_likelihoods(
    scores: np.ndarray, labels: np.ndarray, clip_epsilon: float
) -> np.ndarray:
    """Every record's ``y * log(s) + (1 - y) * log(1 - s)``, with each score
    clamped to [clip_epsilon, 1 - clip_epsilon]; cross-entropy is minus their mean.

    It is taken as one log per record, of the probability that the clamped
    score gives the record's label, ``|s - (1 - y)|``: exactly ``s`` for a
    positive and ``1 - s`` for a negative, as ``s - 1`` rounds to ``-(1 - s)``.
    For a 0/1 label the sum's other term is ``0 * log(...)``, -0.0, which adds
    nothing, so the bits are the sum's; a NaN score gives NaN either way. The
    one exception is a ``clip_epsilon`` of at most 2**-54: ``1 - clip_epsilon``
    rounds to 1, and a positive scored 1.0 gets log(1) = 0 here where the
    sum's ``0 * log(0)`` is NaN. (A select, ``np.where(y == 1, s, 1 - s)``,
    costs more than the log it saves on labels in random order.)"""
    if not 0.0 < clip_epsilon < 0.5:
        raise ValueError("clip_epsilon must lie in (0, 0.5)")
    s = np.clip(np.asarray(scores, dtype=np.float64), clip_epsilon, 1.0 - clip_epsilon)
    return np.log(np.abs(s - (1 - np.asarray(labels))))


def _squared_errors(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Every record's ``(s - y) ** 2``; the Brier score is their mean."""
    return (np.asarray(scores, dtype=np.float64) - np.asarray(labels)) ** 2


def cross_entropy(
    scores: np.ndarray, labels: np.ndarray, clip_epsilon: float = DEFAULT_CLIP_EPSILON
) -> float:
    """Mean binary cross-entropy (natural log), scores clamped away from 0/1."""
    return float(-np.mean(_log_likelihoods(scores, labels, clip_epsilon)))


def brier(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared difference between score and label."""
    return float(np.mean(_squared_errors(scores, labels)))
