"""Ranking- and threshold-based discrimination metrics for binary scores.

Every metric takes a set's ``scores`` and ``labels`` as arrays, as a
:class:`~calaudit.dataset.ScoreSet` holds them; they are not checked again here.
"""

from __future__ import annotations

import numpy as np

from .stats import midranks


def _class_counts(labels: np.ndarray, op: str) -> tuple[int, int]:
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"{op} needs both label classes present")
    return n_pos, n_neg


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic.

    Ties are handled with mid-ranks, so the value equals
    P(score+ > score-) + 0.5 * P(score+ = score-).
    """
    labels = np.asarray(labels)
    n_pos, n_neg = _class_counts(labels, "roc_auc")
    ranks = midranks(np.asarray(scores, dtype=np.float64))
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve in average-precision (step) form.

    Thresholds descend over distinct score values (ties share one threshold);
    the area is the sum of precision times recall increments, with no linear
    interpolation between points.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("pr_auc needs at least one positive label")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    block_end = np.concatenate((sorted_scores[1:] != sorted_scores[:-1], [True]))
    tp = np.cumsum(sorted_labels)[block_end]
    fp = np.cumsum(1 - sorted_labels)[block_end]
    precision = tp / (tp + fp)
    recall = tp / n_pos
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


def pr_auc_gain(scores: np.ndarray, labels: np.ndarray) -> float:
    """PR area rescaled against the random-guess baseline: (AP - pi) / (1 - pi).

    This is normalized average precision, reported under the output key
    ``auc_prg``; it is not the precision-recall-gain area of Flach & Kull
    (NeurIPS 2015). The key keeps its name so existing outputs stay comparable.
    """
    return _normalized_ap(pr_auc(scores, labels), labels)


def _normalized_ap(ap: float, labels: np.ndarray) -> float:
    """``(ap - pi) / (1 - pi)`` from the ``pr_auc`` value ``ap`` of a set with
    these labels, for a caller that already has ``ap``."""
    pi = float(np.mean(labels))
    if pi == 1.0:
        raise ValueError("pr_auc_gain is undefined when every label is positive")
    return float((ap - pi) / (1.0 - pi))


def balanced_accuracy(
    scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5
) -> float:
    """Mean of TPR and TNR with predictions ``score >= threshold``."""
    labels = np.asarray(labels)
    _class_counts(labels, "balanced_accuracy")
    predictions = np.asarray(scores) >= threshold
    tpr = float(predictions[labels == 1].mean())
    tnr = float((~predictions[labels == 0]).mean())
    return 0.5 * (tpr + tnr)
