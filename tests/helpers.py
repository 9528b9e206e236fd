"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from calaudit import ScoreSet


def make_scoreset(scores, labels, groups=None) -> ScoreSet:
    return ScoreSet(
        scores=np.asarray(scores, dtype=float),
        labels=np.asarray(labels, dtype=int),
        groups=None if groups is None else np.asarray(groups, dtype=str),
    )


def calibrated_scoreset(n: int, seed: int) -> ScoreSet:
    """Scores uniform on (0, 1) and labels drawn Bernoulli(score)."""
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    return ScoreSet(scores=scores, labels=rng.binomial(1, scores))
