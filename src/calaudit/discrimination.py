"""Ranking- and threshold-based discrimination metrics for binary scores.

Every metric takes a set's ``scores`` and ``labels`` as arrays, as a
:class:`~calaudit.dataset.ScoreSet` holds them; they are not checked again here.
Each one stable-sorts the scores and reads the result through one core, which
an audit cell shares with the order it already has (see ``harness``).
"""

from __future__ import annotations

import numpy as np

from .stats import _block_midranks, _tie_bounds


class _Ranked:
    """A set's records in the stable ascending order of their scores.

    ``order`` is that order, ``scores`` the sorted scores, ``bounds`` their
    tie blocks (see ``stats._tie_bounds``) and ``positives[k]`` the number of
    positive labels among the first ``k`` sorted records, so label counts are
    exact integers.
    """

    __slots__ = ("order", "scores", "bounds", "positives", "n", "n_pos")

    def __init__(self, scores: np.ndarray, labels: np.ndarray, order: np.ndarray) -> None:
        self.order = order
        self.scores = scores[order]
        self.bounds = _tie_bounds(self.scores)
        self.positives = np.concatenate(([0], labels[order].cumsum()))
        self.n = int(order.size)
        self.n_pos = int(self.positives[-1])

    def class_counts(self, op: str) -> tuple[int, int]:
        n_neg = self.n - self.n_pos
        if self.n_pos == 0 or n_neg == 0:
            raise ValueError(f"{op} needs both label classes present")
        return self.n_pos, n_neg


def _rank(scores: np.ndarray, labels: np.ndarray) -> _Ranked:
    scores = np.asarray(scores, dtype=np.float64)
    return _Ranked(scores, np.asarray(labels), np.argsort(scores, kind="stable"))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic.

    Ties are handled with mid-ranks, so the value equals
    P(score+ > score-) + 0.5 * P(score+ = score-).
    """
    labels = np.asarray(labels)
    return _roc_auc(_rank(scores, labels), labels)


def _roc_auc(ranked: _Ranked, labels: np.ndarray) -> float:
    n_pos, n_neg = ranked.class_counts("roc_auc")
    ranks = np.empty(ranked.n, dtype=np.float64)
    ranks[ranked.order] = _block_midranks(ranked.bounds)
    # the positives' ranks are summed in record order
    u = np.add.reduce(ranks[labels == 1]) - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve in average-precision (step) form.

    Thresholds descend over distinct score values (ties share one threshold);
    the area is the sum of precision times recall increments, with no linear
    interpolation between points.
    """
    return _pr_auc(_rank(scores, labels))


def _pr_auc(ranked: _Ranked) -> float:
    n_pos = ranked.n_pos
    if n_pos == 0:
        raise ValueError("pr_auc needs at least one positive label")
    # one point per tie block, highest scores first: the block and every
    # record above it count as predicted positive
    starts = ranked.bounds[-2::-1]
    tp = n_pos - ranked.positives[starts]
    precision = tp / (ranked.n - starts)
    recall = tp / n_pos
    gain = np.empty_like(recall)
    gain[0] = recall[0]
    np.subtract(recall[1:], recall[:-1], out=gain[1:])
    return float(np.add.reduce(gain * precision))


def pr_auc_gain(scores: np.ndarray, labels: np.ndarray) -> float:
    """PR area rescaled against the random-guess baseline: (AP - pi) / (1 - pi).

    This is normalized average precision, reported under the output key
    ``auc_prg``; it is not the precision-recall-gain area of Flach & Kull
    (NeurIPS 2015). The key keeps its name so existing outputs stay comparable.
    """
    ranked = _rank(scores, labels)
    return _normalized_ap(_pr_auc(ranked), ranked)


def _normalized_ap(ap: float, ranked: _Ranked) -> float:
    """``(ap - pi) / (1 - pi)`` from the ``pr_auc`` value ``ap`` of the ranked
    set, for a caller that already has ``ap``."""
    if ranked.n_pos == ranked.n:
        raise ValueError("pr_auc_gain is undefined when every label is positive")
    pi = ranked.n_pos / ranked.n
    return float((ap - pi) / (1.0 - pi))


def balanced_accuracy(
    scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5
) -> float:
    """Mean of TPR and TNR with predictions ``score >= threshold``."""
    return _balanced_accuracy(_rank(scores, labels), threshold)


def _balanced_accuracy(ranked: _Ranked, threshold: float) -> float:
    n_pos, n_neg = ranked.class_counts("balanced_accuracy")
    # the records below the threshold are a prefix of the sorted order
    below = int(ranked.scores.searchsorted(threshold))
    below_pos = int(ranked.positives[below])
    return 0.5 * ((n_pos - below_pos) / n_pos + (below - below_pos) / n_neg)
