"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from calaudit import ScoreSet
from calaudit.dataset import _match_group_indices


def make_scoreset(scores, labels, groups=None) -> ScoreSet:
    return ScoreSet(
        scores=np.asarray(scores, dtype=float),
        labels=np.asarray(labels, dtype=int),
        groups=None if groups is None else np.asarray(groups, dtype=str),
    )


def counted(counts):
    """(llrs, labels) holding, per llr, the given numbers of (negatives, positives)."""
    sizes = [n + p for n, p in counts.values()]
    llrs = np.repeat(np.array(list(counts), dtype=np.float64), sizes)
    labels = np.concatenate([[0] * n + [1] * p for n, p in counts.values()])
    return llrs, labels


def calibrated_scoreset(n: int, seed: int) -> ScoreSet:
    """Scores uniform on (0, 1) and labels drawn Bernoulli(score)."""
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    return ScoreSet(scores=scores, labels=rng.binomial(1, scores))


def match_indices(s: ScoreSet, majority: str, minority: str, seed) -> np.ndarray:
    """The size-matched majority indices an audit draws for these tags and seed."""
    return _match_group_indices(
        s.labels,
        majority,
        np.flatnonzero(s.groups == majority),
        minority,
        np.flatnonzero(s.groups == minority),
        seed,
    )
