"""Ranking- and threshold-based discrimination metrics for binary scores."""

from __future__ import annotations

import numpy as np

from .dataset import ScoreSet
from .stats import midranks


def _class_counts(scoreset: ScoreSet, op: str) -> tuple[int, int]:
    n_pos = int(scoreset.labels.sum())
    n_neg = scoreset.n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"{op} needs both label classes present")
    return n_pos, n_neg


def roc_auc(scoreset: ScoreSet) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic.

    Ties are handled with mid-ranks, so the value equals
    P(score+ > score-) + 0.5 * P(score+ = score-).
    """
    n_pos, n_neg = _class_counts(scoreset, "roc_auc")
    ranks = midranks(scoreset.scores)
    u = ranks[scoreset.labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def pr_auc(scoreset: ScoreSet) -> float:
    """Area under the precision-recall curve in average-precision (step) form.

    Thresholds descend over distinct score values (ties share one threshold);
    the area is the sum of precision times recall increments, with no linear
    interpolation between points.
    """
    n_pos = int(scoreset.labels.sum())
    if n_pos == 0:
        raise ValueError("pr_auc needs at least one positive label")
    order = np.argsort(-scoreset.scores, kind="stable")
    sorted_scores = scoreset.scores[order]
    sorted_labels = scoreset.labels[order]
    block_end = np.r_[sorted_scores[1:] != sorted_scores[:-1], True]
    tp = np.cumsum(sorted_labels)[block_end]
    fp = np.cumsum(1 - sorted_labels)[block_end]
    precision = tp / (tp + fp)
    recall = tp / n_pos
    return float(np.sum(np.diff(np.r_[0.0, recall]) * precision))


def pr_auc_gain(scoreset: ScoreSet) -> float:
    """PR area rescaled against the random-guess baseline: (AP - pi) / (1 - pi).

    This is normalized average precision, reported under the output key
    ``auc_prg``; it is not the precision-recall-gain area of Flach & Kull
    (NeurIPS 2015). The key keeps its name so existing outputs stay comparable.
    """
    pi = scoreset.prevalence
    if pi == 1.0:
        raise ValueError("pr_auc_gain is undefined when every label is positive")
    return float((pr_auc(scoreset) - pi) / (1.0 - pi))


def balanced_accuracy(scoreset: ScoreSet, threshold: float = 0.5) -> float:
    """Mean of TPR and TNR with predictions ``score >= threshold``."""
    _class_counts(scoreset, "balanced_accuracy")
    predictions = scoreset.scores >= threshold
    tpr = float(predictions[scoreset.labels == 1].mean())
    tnr = float((~predictions[scoreset.labels == 0]).mean())
    return 0.5 * (tpr + tnr)

