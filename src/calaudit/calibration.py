"""Bin-based calibration errors and proper scoring rules.

Every estimator takes a set's ``scores`` and ``labels`` as arrays, as a
:class:`~calaudit.dataset.ScoreSet` holds them: non-empty, of equal length,
scores in [0, 1] and labels 0 or 1. They are not checked again here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import _stable_order

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
    """Equal-width bin index of every score: right-closed, bin 0 also holds 0."""
    return np.searchsorted(np.linspace(0.0, 1.0, n_bins + 1)[1:-1], scores, side="left")


def _equal_count_bins(positions: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-count bin index of every record, from its position in the stable
    sort of its set: ``np.array_split`` runs of those positions, larger first,
    gathered from the bin index of every position."""
    n = positions.size
    if n < n_bins:
        raise ValueError(
            f"equal_count binning needs at least n_bins={n_bins} samples, got {n}"
        )
    base, extras = divmod(n, n_bins)
    # the first `extras` bins hold base + 1 positions each, the rest base
    sizes = np.full(n_bins, base)
    sizes[:extras] += 1
    return np.repeat(np.arange(n_bins), sizes)[positions]


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
        membership = np.empty(n, dtype=np.int64)
        membership[_stable_order(scores)] = _equal_count_bins(np.arange(n), n_bins)
        return Binning(EQUAL_COUNT, n_bins, membership)
    raise ValueError(f"unknown binning scheme {scheme!r}")


Gaps = tuple[np.ndarray, np.ndarray]


def _bin_gaps(
    scores: np.ndarray, labels: np.ndarray, membership: np.ndarray, n_bins: int
) -> Gaps:
    """Counts and |positive rate - mean score| of the non-empty bins, from
    per-bin sums accumulated in record order."""
    counts = np.bincount(membership, minlength=n_bins)
    score_sums = np.bincount(membership, weights=scores, minlength=n_bins)
    # bincount casts integer weights to float64, so labels need no copy
    label_sums = np.bincount(membership, weights=labels, minlength=n_bins)
    occupied = counts > 0
    counts = counts[occupied]
    return counts, np.abs(label_sums[occupied] - score_sums[occupied]) / counts


def _binned_gaps(scores, labels, binning: Binning) -> Gaps:
    scores = np.asarray(scores, dtype=np.float64)
    if binning.membership.size != scores.size:
        raise ValueError("binning was built over a different sample set")
    return _bin_gaps(scores, np.asarray(labels), binning.membership, binning.n_bins)


def _ece(gaps: Gaps) -> float:
    counts, gap = gaps
    return float(np.add.reduce(counts * gap) / np.add.reduce(counts))


def _mce(gaps: Gaps) -> float:
    return float(np.maximum.reduce(gaps[1]))


def ece(scores: np.ndarray, labels: np.ndarray, binning: Binning) -> float:
    """Expected calibration error: count-weighted mean |positive rate - mean score|.

    Confidence is the mean score within a bin, not the bin midpoint; empty
    bins contribute zero.
    """
    return _ece(_binned_gaps(scores, labels, binning))


def mce(scores: np.ndarray, labels: np.ndarray, binning: Binning) -> float:
    """Maximum calibration error over non-empty bins."""
    return _mce(_binned_gaps(scores, labels, binning))


def ada_ece(
    scores: np.ndarray, labels: np.ndarray, n_bins: int = DEFAULT_N_BINS
) -> float:
    """Adaptive ECE: the expected calibration error over equal-count bins."""
    return ece(scores, labels, bin_scores(scores, EQUAL_COUNT, n_bins))


def _log_likelihoods(
    scores: np.ndarray, labels: np.ndarray, clip_epsilon: float
) -> np.ndarray:
    """Every record's ``y * log(s) + (1 - y) * log(1 - s)``, with each score
    clamped to [clip_epsilon, 1 - clip_epsilon]; cross-entropy is minus their mean."""
    if not 0.0 < clip_epsilon < 0.5:
        raise ValueError("clip_epsilon must lie in (0, 0.5)")
    s = np.clip(np.asarray(scores, dtype=np.float64), clip_epsilon, 1.0 - clip_epsilon)
    y = np.asarray(labels)
    return y * np.log(s) + (1 - y) * np.log(1.0 - s)


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
