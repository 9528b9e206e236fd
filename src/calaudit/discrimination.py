"""Ranking- and threshold-based discrimination metrics for binary scores.

Every metric takes a set's ``scores`` and ``labels`` as arrays, as a
:class:`~calaudit.dataset.ScoreSet` holds them; they are not checked again here.
Each one stable-sorts the scores and reads the result through one batch
kernel, which evaluates many sets at once, in the sorted order an audit
already has (see ``harness``); a single set is the batch of one. A kernel
returns every set's value and, under the set's number, the reason a value is
undefined. Label counts are exact integers, and so are twice the mid-rank
sums, which float64 adds exactly in any order; the one sum whose bits depend
on its order, the PR area, is taken row-wise on sets with equal numbers of tie
blocks (``stats._RaggedRows``), so every set gets the bits of a call on that
set alone.
"""

from __future__ import annotations

import numpy as np

from .stats import _RaggedRows, _one, _stable_order, _tie_bounds, _undefined


class _Ranked:
    """Sets of records, one after another, each in the stable ascending order
    of its scores.

    ``sizes`` and ``starts`` are each set's record count and first position,
    ``scores`` the sorted scores, ``bounds`` their tie blocks (see
    ``stats._tie_bounds``; none crosses from one set into the next),
    ``blocks`` each set's number of them, ``positives[k]`` the number of
    positive labels among the first ``k`` positions and ``n_pos`` each set's
    number of positives, so label counts are exact integers.
    """

    __slots__ = ("sizes", "starts", "scores", "bounds", "blocks", "positives", "n_pos")

    def __init__(self, scores: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> None:
        self.sizes = sizes
        self.starts = np.cumsum(sizes) - sizes
        self.scores = scores
        self.bounds = _tie_bounds(scores, self.starts)
        self.blocks = np.diff(self.bounds.searchsorted(np.append(self.starts, scores.size)))
        self.positives = np.concatenate(([0], labels.cumsum()))
        self.n_pos = self.positives[self.starts + sizes] - self.positives[self.starts]

    def block_sets(self) -> np.ndarray:
        """The set of every tie block."""
        return np.repeat(np.arange(self.sizes.size), self.blocks)

    def one_class(self, op: str) -> dict[int, str]:
        n_pos = self.n_pos
        return _undefined(
            (n_pos == 0) | (n_pos == self.sizes), f"{op} needs both label classes present"
        )


def _rank(scores: np.ndarray, labels: np.ndarray) -> _Ranked:
    """One set as a batch of one."""
    scores = np.asarray(scores, dtype=np.float64)
    order = _stable_order(scores)
    return _Ranked(scores[order], np.asarray(labels)[order], np.array([scores.size]))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic.

    Ties are handled with mid-ranks, so the value equals
    P(score+ > score-) + 0.5 * P(score+ = score-).
    """
    return _one(_roc_auc(_rank(scores, labels)))


def _roc_auc(ranked: _Ranked) -> tuple[np.ndarray, dict[int, str]]:
    n_pos = ranked.n_pos
    n_neg = ranked.sizes - n_pos
    # the positives' ranks, summed block by block: a block's mid-rank within
    # its set, 1-based, is half the integer below, so every partial sum is an
    # exact half-integer and the sum does not depend on its order
    of = ranked.block_sets()
    twice_midrank = ranked.bounds[:-1] + ranked.bounds[1:] + 1 - 2 * ranked.starts[of]
    twice_midrank *= np.diff(ranked.positives[ranked.bounds])
    rank_sums = np.bincount(of, weights=twice_midrank, minlength=n_pos.size) / 2.0
    u = rank_sums - n_pos * (n_pos + 1) / 2.0
    return u / np.maximum(n_pos * n_neg, 1), ranked.one_class("roc_auc")


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve in average-precision (step) form.

    Thresholds descend over distinct score values (ties share one threshold);
    the area is the sum of precision times recall increments, with no linear
    interpolation between points.
    """
    return _one(_pr_auc(_rank(scores, labels)))


def _pr_auc(ranked: _Ranked) -> tuple[np.ndarray, dict[int, str]]:
    # one point per tie block: the block and every record of its set above it
    # count as predicted positive. The blocks stay in ascending order, and the
    # sum runs over each set's blocks from its highest scores down
    starts, of = ranked.bounds[:-1], ranked.block_sets()
    ends = ranked.starts + ranked.sizes
    tp = ranked.positives[ends][of] - ranked.positives[starts]
    precision = tp / (ends[of] - starts)
    recall = tp / np.maximum(ranked.n_pos, 1)[of]
    gain = np.empty_like(recall)
    np.subtract(recall[:-1], recall[1:], out=gain[:-1])
    highest = np.cumsum(ranked.blocks) - 1
    gain[highest] = recall[highest]
    gain *= precision
    return (
        _RaggedRows(ranked.blocks[::-1]).sums(gain[::-1])[::-1],
        _undefined(ranked.n_pos == 0, "pr_auc needs at least one positive label"),
    )


def pr_auc_gain(scores: np.ndarray, labels: np.ndarray) -> float:
    """PR area rescaled against the random-guess baseline: (AP - pi) / (1 - pi).

    This is normalized average precision, reported under the output key
    ``auc_prg``; it is not the precision-recall-gain area of Flach & Kull
    (NeurIPS 2015). The key keeps its name so existing outputs stay comparable.
    """
    ranked = _rank(scores, labels)
    return _one(_normalized_ap(_pr_auc(ranked), ranked))


def _normalized_ap(
    ap: tuple[np.ndarray, dict[int, str]], ranked: _Ranked
) -> tuple[np.ndarray, dict[int, str]]:
    """``(ap - pi) / (1 - pi)`` from the ``_pr_auc`` result ``ap`` of the
    ranked sets, for a caller that already has it."""
    values, errors = ap
    all_positive = ranked.n_pos == ranked.sizes
    pi = ranked.n_pos / np.maximum(ranked.sizes, 1)
    return (values - pi) / np.where(all_positive, 1.0, 1.0 - pi), {
        **_undefined(all_positive, "pr_auc_gain is undefined when every label is positive"),
        **errors,
    }


def balanced_accuracy(
    scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5
) -> float:
    """Mean of TPR and TNR with predictions ``score >= threshold``."""
    return _one(_balanced_accuracy(_rank(scores, labels), threshold))


def _balanced_accuracy(
    ranked: _Ranked, threshold: float
) -> tuple[np.ndarray, dict[int, str]]:
    n_pos = ranked.n_pos
    n_neg = ranked.sizes - n_pos
    # the records below the threshold are a prefix of each set
    below = np.concatenate(([0], (ranked.scores < threshold).cumsum()))
    starts, ends = ranked.starts, ranked.starts + ranked.sizes
    below_n = below[ends] - below[starts]
    below_pos = ranked.positives[starts + below_n] - ranked.positives[starts]
    tpr = (n_pos - below_pos) / np.maximum(n_pos, 1)
    tnr = (below_n - below_pos) / np.maximum(n_neg, 1)
    return 0.5 * (tpr + tnr), ranked.one_class("balanced_accuracy")
