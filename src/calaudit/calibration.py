"""Bin-based calibration errors, proper scoring rules, and reliability curves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .dataset import ScoreSet, _write_csv

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


def bin_scores(
    scoreset: ScoreSet, scheme: str = EQUAL_WIDTH, n_bins: int = DEFAULT_N_BINS
) -> Binning:
    """Assign every sample to one of ``n_bins`` bins.

    equal_width: boundaries at i/n_bins, bins right-closed except the first,
    which also contains 0. equal_count: samples are stable-sorted by score and
    split into contiguous runs whose sizes differ by at most one (larger runs
    first); boundaries sit midway between adjacent run endpoints.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    scores = scoreset.scores
    if scheme == EQUAL_WIDTH:
        boundaries = np.linspace(0.0, 1.0, n_bins + 1)
        membership = np.searchsorted(boundaries[1:-1], scores, side="left")
        return Binning(EQUAL_WIDTH, n_bins, boundaries, membership)
    if scheme == EQUAL_COUNT:
        if scoreset.n < n_bins:
            raise ValueError(
                f"equal_count binning needs at least n_bins={n_bins} samples, got {scoreset.n}"
            )
        order = np.argsort(scores, kind="stable")
        chunks = np.array_split(order, n_bins)
        membership = np.empty(scoreset.n, dtype=np.int64)
        for b, chunk in enumerate(chunks):
            membership[chunk] = b
        sorted_scores = scores[order]
        edges = np.cumsum([len(c) for c in chunks])[:-1]
        interior = (sorted_scores[edges - 1] + sorted_scores[edges]) / 2.0
        interior = np.clip(interior, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
        boundaries = _strictly_ascending(np.concatenate([[0.0], interior, [1.0]]))
        return Binning(EQUAL_COUNT, n_bins, boundaries, membership)
    raise ValueError(f"unknown binning scheme {scheme!r}")


def _bin_stats(scoreset: ScoreSet, binning: Binning):
    if binning.membership.size != scoreset.n:
        raise ValueError("binning was built over a different sample set")
    counts = np.bincount(binning.membership, minlength=binning.n_bins)
    score_sums = np.bincount(
        binning.membership, weights=scoreset.scores, minlength=binning.n_bins
    )
    label_sums = np.bincount(
        binning.membership,
        weights=scoreset.labels.astype(np.float64),
        minlength=binning.n_bins,
    )
    return counts, score_sums, label_sums


def ece(scoreset: ScoreSet, binning: Binning) -> float:
    """Expected calibration error: count-weighted mean |positive rate - mean score|.

    Confidence is the mean score within a bin, not the bin midpoint; empty
    bins contribute zero.
    """
    counts, score_sums, label_sums = _bin_stats(scoreset, binning)
    occupied = counts > 0
    gaps = np.abs(label_sums[occupied] - score_sums[occupied]) / counts[occupied]
    return float(np.sum(counts[occupied] * gaps) / scoreset.n)


def mce(scoreset: ScoreSet, binning: Binning) -> float:
    """Maximum calibration error over non-empty bins."""
    counts, score_sums, label_sums = _bin_stats(scoreset, binning)
    occupied = counts > 0
    gaps = np.abs(label_sums[occupied] - score_sums[occupied]) / counts[occupied]
    return float(gaps.max())


def ada_ece(scoreset: ScoreSet, n_bins: int = DEFAULT_N_BINS) -> float:
    """Adaptive ECE: the expected calibration error over equal-count bins."""
    return ece(scoreset, bin_scores(scoreset, EQUAL_COUNT, n_bins))


def cross_entropy(
    scoreset: ScoreSet, clip_epsilon: float = DEFAULT_CLIP_EPSILON
) -> float:
    """Mean binary cross-entropy (natural log), scores clamped away from 0/1."""
    if not 0.0 < clip_epsilon < 0.5:
        raise ValueError("clip_epsilon must lie in (0, 0.5)")
    s = np.clip(scoreset.scores, clip_epsilon, 1.0 - clip_epsilon)
    y = scoreset.labels
    return float(-np.mean(y * np.log(s) + (1 - y) * np.log(1.0 - s)))


def brier(scoreset: ScoreSet) -> float:
    """Mean squared difference between score and label."""
    return float(np.mean((scoreset.scores - scoreset.labels) ** 2))


def reliability_curve(scoreset: ScoreSet, binning: Binning) -> list[ReliabilityPoint]:
    """One (mean score, positive rate) point per non-empty bin, ordered by bin."""
    counts, score_sums, label_sums = _bin_stats(scoreset, binning)
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
