"""Bin-based calibration errors, proper scoring rules, and reliability curves.

Every estimator takes a set's ``scores`` and ``labels`` as arrays, as a
:class:`~calaudit.dataset.ScoreSet` holds them: non-empty, of equal length,
scores in [0, 1] and labels 0 or 1. They are not checked again here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .dataset import _write_csv

EQUAL_WIDTH = "equal_width"
EQUAL_COUNT = "equal_count"

DEFAULT_N_BINS = 15
DEFAULT_CLIP_EPSILON = 1e-7


@dataclass(frozen=True)
class Binning:
    """Bin boundaries over [0, 1] plus the bin index of every sample.

    ``membership`` is authoritative: for equal-count binning samples are
    assigned by stable-sorted position, so tied scores may straddle a
    boundary and the boundary values are descriptive quantile markers only.
    """

    scheme: str
    n_bins: int
    boundaries: np.ndarray
    membership: np.ndarray

    def __post_init__(self) -> None:
        if self.scheme not in (EQUAL_WIDTH, EQUAL_COUNT):
            raise ValueError(f"unknown binning scheme {self.scheme!r}")
        boundaries = np.array(self.boundaries, dtype=np.float64, copy=True).reshape(-1)
        membership = np.array(self.membership, dtype=np.int64, copy=True).reshape(-1)
        if boundaries.size != self.n_bins + 1:
            raise ValueError("boundaries must have n_bins + 1 entries")
        if boundaries[0] != 0.0 or boundaries[-1] != 1.0:
            raise ValueError("boundaries must span [0, 1]")
        if np.any(np.diff(boundaries) <= 0.0):
            raise ValueError("boundaries must be strictly ascending")
        if membership.min() < 0 or membership.max() >= self.n_bins:
            raise ValueError("membership indices out of range")
        boundaries.setflags(write=False)
        membership.setflags(write=False)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "membership", membership)


@dataclass(frozen=True)
class ReliabilityPoint:
    bin_index: int
    mean_score: float
    positive_rate: float
    count: int


def _strictly_ascending(boundaries: np.ndarray) -> np.ndarray:
    # nudge interior markers by ulps when ties collapse adjacent quantiles
    b = boundaries.copy()
    for i in range(b.size - 2, 0, -1):
        if b[i] >= b[i + 1]:
            b[i] = np.nextafter(b[i + 1], -np.inf)
    for i in range(1, b.size - 1):
        if b[i] <= b[i - 1]:
            b[i] = np.nextafter(b[i - 1], np.inf)
    if np.any(np.diff(b) <= 0.0):
        raise ValueError("cannot derive strictly ascending bin boundaries")
    return b


def _equal_width_bins(scores: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width bin index of every score: right-closed, bin 0 also holds 0."""
    return np.searchsorted(np.linspace(0.0, 1.0, n_bins + 1)[1:-1], scores, side="left")


def _equal_count_bins(positions: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-count bin index of every record, from its position in the stable
    sort of its set: ``np.array_split`` runs of those positions, larger first."""
    n = positions.size
    if n < n_bins:
        raise ValueError(
            f"equal_count binning needs at least n_bins={n_bins} samples, got {n}"
        )
    base, extras = divmod(n, n_bins)
    # the first `extras` bins hold base + 1 positions each, the rest base
    return np.where(
        positions < extras * (base + 1), positions // (base + 1), (positions - extras) // base
    )


def bin_scores(
    scores: np.ndarray, scheme: str = EQUAL_WIDTH, n_bins: int = DEFAULT_N_BINS
) -> Binning:
    """Assign every sample to one of ``n_bins`` bins.

    equal_width: boundaries at i/n_bins, bins right-closed except the first,
    which also contains 0. equal_count: samples are stable-sorted by score and
    split into contiguous runs whose sizes differ by at most one (larger runs
    first); boundaries sit midway between adjacent run endpoints.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if scheme == EQUAL_WIDTH:
        boundaries = np.linspace(0.0, 1.0, n_bins + 1)
        return Binning(EQUAL_WIDTH, n_bins, boundaries, _equal_width_bins(scores, n_bins))
    if scheme == EQUAL_COUNT:
        n = scores.size
        by_position = _equal_count_bins(np.arange(n), n_bins)
        order = np.argsort(scores, kind="stable")
        membership = np.empty(n, dtype=np.int64)
        membership[order] = by_position
        sorted_scores = scores[order]
        edges = np.flatnonzero(np.diff(by_position)) + 1
        interior = (sorted_scores[edges - 1] + sorted_scores[edges]) / 2.0
        interior = np.clip(interior, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
        boundaries = _strictly_ascending(np.concatenate([[0.0], interior, [1.0]]))
        return Binning(EQUAL_COUNT, n_bins, boundaries, membership)
    raise ValueError(f"unknown binning scheme {scheme!r}")


BinStats = tuple[np.ndarray, np.ndarray, np.ndarray]


def _bin_stats(
    scores: np.ndarray, labels: np.ndarray, membership: np.ndarray, n_bins: int
) -> BinStats:
    """Per bin: record count, score sum and label sum, accumulated in record order."""
    counts = np.bincount(membership, minlength=n_bins)
    score_sums = np.bincount(membership, weights=scores, minlength=n_bins)
    label_sums = np.bincount(
        membership, weights=labels.astype(np.float64), minlength=n_bins
    )
    return counts, score_sums, label_sums


def _binned_stats(scores, labels, binning: Binning) -> BinStats:
    scores = np.asarray(scores, dtype=np.float64)
    if binning.membership.size != scores.size:
        raise ValueError("binning was built over a different sample set")
    return _bin_stats(scores, np.asarray(labels), binning.membership, binning.n_bins)


def _gaps(stats: BinStats) -> tuple[np.ndarray, np.ndarray]:
    """Counts and |positive rate - mean score| of the non-empty bins."""
    counts, score_sums, label_sums = stats
    occupied = counts > 0
    gaps = np.abs(label_sums[occupied] - score_sums[occupied]) / counts[occupied]
    return counts[occupied], gaps


def _ece(stats: BinStats) -> float:
    counts, gaps = _gaps(stats)
    return float(np.sum(counts * gaps) / stats[0].sum())


def _mce(stats: BinStats) -> float:
    return float(_gaps(stats)[1].max())


def ece(scores: np.ndarray, labels: np.ndarray, binning: Binning) -> float:
    """Expected calibration error: count-weighted mean |positive rate - mean score|.

    Confidence is the mean score within a bin, not the bin midpoint; empty
    bins contribute zero.
    """
    return _ece(_binned_stats(scores, labels, binning))


def mce(scores: np.ndarray, labels: np.ndarray, binning: Binning) -> float:
    """Maximum calibration error over non-empty bins."""
    return _mce(_binned_stats(scores, labels, binning))


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


def reliability_curve(
    scores: np.ndarray, labels: np.ndarray, binning: Binning
) -> list[ReliabilityPoint]:
    """One (mean score, positive rate) point per non-empty bin, ordered by bin."""
    counts, score_sums, label_sums = _binned_stats(scores, labels, binning)
    points = []
    for b in range(binning.n_bins):
        if counts[b] == 0:
            continue
        points.append(
            ReliabilityPoint(
                bin_index=b,
                mean_score=float(score_sums[b] / counts[b]),
                positive_rate=float(label_sums[b] / counts[b]),
                count=int(counts[b]),
            )
        )
    return points


def write_reliability_csv(points: list[ReliabilityPoint], dest: str | IO[str]) -> None:
    _write_csv(
        dest,
        ("bin_index", "mean_score", "positive_rate", "count"),
        ([p.bin_index, str(p.mean_score), str(p.positive_rate), p.count] for p in points),
    )
