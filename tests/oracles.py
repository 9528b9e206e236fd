"""Independent brute-force reference implementations used to pin expected values.

Everything here is deliberately slow and literal: pairwise loops, explicit
threshold sweeps, boundary scans, full sign-pattern enumeration, adaptive
quadrature. None of it shares code with the package under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate


def roc_auc_pairwise(scores, labels) -> float:
    """Mann-Whitney probability by O(n^2) enumeration of (positive, negative) pairs."""
    scores = list(scores)
    labels = list(labels)
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def pr_auc_threshold_sweep(scores, labels) -> float:
    """Average precision by an explicit sweep over descending distinct thresholds."""
    scores = list(scores)
    labels = list(labels)
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    area = 0.0
    previous_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - previous_recall) * precision
        previous_recall = recall
    return area


def balanced_accuracy_confusion(scores, labels, threshold) -> float:
    """Balanced accuracy from explicitly counted confusion-matrix cells."""
    tp = fn = tn = fp = 0
    for s, y in zip(scores, labels):
        predicted = s >= threshold
        if y == 1 and predicted:
            tp += 1
        elif y == 1:
            fn += 1
        elif predicted:
            fp += 1
        else:
            tn += 1
    return 0.5 * (tp / (tp + fn) + tn / (tn + fp))


def equal_width_membership(scores, boundaries) -> list[int]:
    """Bin index per score by scanning boundaries: right-closed, bin 0 also holds 0."""
    members = []
    n_bins = len(boundaries) - 1
    for s in scores:
        if s <= boundaries[1]:
            members.append(0)
            continue
        for b in range(1, n_bins):
            if boundaries[b] < s <= boundaries[b + 1]:
                members.append(b)
                break
        else:
            members.append(n_bins - 1)
    return members


def equal_count_membership(scores, n_bins) -> list[int]:
    """Bin index per score by stable sort position, larger bins first."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (scores[i], i))
    base = n // n_bins
    extras = n % n_bins
    members = [0] * n
    position = 0
    for b in range(n_bins):
        size = base + (1 if b < extras else 0)
        for i in order[position : position + size]:
            members[i] = b
        position += size
    return members


def calibration_gaps(scores, labels, members, n_bins):
    """(ece, mce) from per-bin loops over an explicit membership list."""
    n = len(scores)
    ece = 0.0
    mce = 0.0
    for b in range(n_bins):
        bin_scores = [s for s, m in zip(scores, members) if m == b]
        bin_labels = [y for y, m in zip(labels, members) if m == b]
        if not bin_scores:
            continue
        gap = abs(
            sum(bin_labels) / len(bin_labels) - sum(bin_scores) / len(bin_scores)
        )
        ece += len(bin_scores) / n * gap
        mce = max(mce, gap)
    return ece, mce


def wilcoxon_enumerated(diffs) -> tuple[float, float]:
    """(W, two-sided p) by literal enumeration of every sign assignment.

    Uses the same conventions as the implementation (zeros dropped, mid-ranks,
    W = min(W+, W-), p = P(T <= W) + P(T >= total - W) capped at one) but
    derives the null distribution by brute force over all 2^n patterns.
    """
    d = [x for x in diffs if x != 0.0]
    n = len(d)
    abs_d = [abs(x) for x in d]
    ranks = _midranks_list(abs_d)
    w_plus = sum(r for r, x in zip(ranks, d) if x > 0)
    w_minus = sum(r for r, x in zip(ranks, d) if x < 0)
    w = min(w_plus, w_minus)
    total = sum(ranks)
    at_most = 0
    at_least = 0
    for signs in itertools.product((0, 1), repeat=n):
        t = sum(r for r, s in zip(ranks, signs) if s)
        if t <= w + 1e-12:
            at_most += 1
        if t >= total - w - 1e-12:
            at_least += 1
    p = (at_most + at_least) / 2.0**n
    return w, min(1.0, p)


def _midranks_list(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def beta_cdf_quadrature(x: float, alpha: float, beta: float) -> float:
    """I_x(alpha, beta) by adaptive quadrature of the normalized beta density."""
    ln_norm = math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(
            ln_norm + (alpha - 1.0) * math.log(t) + (beta - 1.0) * math.log(1.0 - t)
        )

    value, _ = integrate.quad(density, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=400)
    return value


def quantiles_by_hand(values, ps) -> list[float]:
    """Order-statistic interpolation at positions (k-1)/(n-1), written longhand."""
    v = sorted(values)
    n = len(v)
    out = []
    for p in ps:
        if n == 1:
            out.append(v[0])
            continue
        h = p * (n - 1)
        lo = int(math.floor(h))
        hi = min(lo + 1, n - 1)
        out.append(v[lo] + (h - lo) * (v[hi] - v[lo]))
    return out


def sigmoid_two_branch(z) -> np.ndarray:
    """The logistic function evaluated separately on each sign of z:
    ``1 / (1 + exp(-z))`` where z >= 0 and ``exp(z) / (1 + exp(z))`` elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
