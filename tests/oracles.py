"""Independent brute-force reference implementations used to pin expected values.

Everything here is deliberately slow and literal: pairwise loops, explicit
threshold sweeps, boundary scans, full sign-pattern enumeration, adaptive
quadrature. None of it shares code with the package under test, except that
the score-CSV parser builds the package's ``ScoreSet`` and raises its
``ScoreSetFormatError``.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import asdict
from typing import IO

import numpy as np
from scipy import integrate, special

from calaudit.dataset import UNKNOWN_GROUP, ScoreSet, ScoreSetFormatError


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


def inverse_beta_cdf(q, alpha: float, beta: float, tolerance: float = 1e-10):
    """x with I_x(alpha, beta) = q, elementwise, by bisection on scipy's
    regularized incomplete beta; a float for a scalar q."""
    qa = np.asarray(q, dtype=np.float64)
    lo = np.zeros_like(qa)
    hi = np.ones_like(qa)
    while float(np.max(hi - lo)) > tolerance:
        mid = 0.5 * (lo + hi)
        below = special.betainc(alpha, beta, mid) < qa
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return float(out) if out.ndim == 0 else out


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


def fit_platt_logaddexp(llrs, labels, tolerance=1e-8, max_iterations=100):
    """``(a, b, iterations, final_gradient_norm, converged, took_nan)`` of the
    Newton fit whose line search compares log-likelihoods summed from
    ``np.logaddexp(0, z)``: the loop of ``platt.fit_platt`` before its line
    search took vector-form sums, kept as the reference for its bits (inputs
    are assumed valid). ``took_nan`` says whether the fit accepted a step whose
    log-likelihood is NaN, which every comparison then lets through."""
    x = np.asarray(llrs, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    pos, neg = x[y == 1], x[y == 0]
    separable = bool(pos.min() > neg.max() or pos.max() < neg.min())

    def log_likelihood(a, b):
        z = a * x + b
        return float(np.sum(y * z - np.logaddexp(0.0, z))), z

    xx = x * x
    a, b = 1.0, 0.0
    ll, z = log_likelihood(a, b)
    iterations = 0
    gradient_norm = np.inf
    took_nan = False
    for _ in range(max_iterations):
        p = sigmoid_two_branch(z)
        residual = y - p
        g_a = float(residual @ x)
        g_b = float(residual.sum())
        gradient_norm = max(abs(g_a), abs(g_b))
        if gradient_norm <= tolerance and not separable:
            break
        w = p * (1.0 - p)
        h_aa = float(w @ xx)
        h_ab = float(w @ x)
        h_bb = float(w.sum())
        det = h_aa * h_bb - h_ab * h_ab
        if not det > 1e-12 * max(h_aa * h_bb, 1e-300):
            ridge = 1e-8 * max(h_aa, h_bb, 1.0)
            h_aa += ridge
            h_bb += ridge
            det = h_aa * h_bb - h_ab * h_ab
        da = (h_bb * g_a - h_ab * g_b) / det
        db = (h_aa * g_b - h_ab * g_a) / det
        slack = 1e-10 * (1.0 + abs(ll))
        step = 1.0
        new_ll, new_z = log_likelihood(a + da, b + db)
        halvings = 0
        while new_ll < ll - slack and halvings < 60:
            step *= 0.5
            halvings += 1
            new_ll, new_z = log_likelihood(a + step * da, b + step * db)
        if new_ll < ll - slack:
            break
        a += step * da
        b += step * db
        ll, z = new_ll, new_z
        took_nan = took_nan or math.isnan(ll)
        iterations += 1
    else:
        residual = y - sigmoid_two_branch(z)
        gradient_norm = max(abs(float(residual @ x)), abs(float(residual.sum())))

    converged = bool(gradient_norm <= tolerance and not separable)
    return float(a), float(b), iterations, float(gradient_norm), converged, took_nan


# the score-CSV parser as it was before it shared its header checks with the
# manifest reader, kept verbatim as the reference for load_scoreset
def _parse_scores(fh: IO[str]) -> ScoreSet:
    reader = csv.DictReader(fh)
    if reader.fieldnames is None:
        raise ScoreSetFormatError("empty input: missing header row")
    missing = {"score", "label"} - set(reader.fieldnames)
    if missing:
        raise ScoreSetFormatError(
            "missing required column(s): " + ", ".join(sorted(missing))
        )
    scores: list[float] = []
    labels: list[int] = []
    sample_ids: list[str] = []
    groups: list[str] = []
    for line, row in enumerate(reader, start=2):
        raw_score = (row.get("score") or "").strip()
        try:
            score = float(raw_score)
        except ValueError:
            raise ScoreSetFormatError(
                f"line {line}: score {raw_score!r} is not a number"
            ) from None
        if not 0.0 <= score <= 1.0:
            raise ScoreSetFormatError(f"line {line}: score {score} outside [0, 1]")
        raw_label = (row.get("label") or "").strip()
        if raw_label not in ("0", "1"):
            raise ScoreSetFormatError(f"line {line}: label {raw_label!r} must be 0 or 1")
        scores.append(score)
        labels.append(int(raw_label))
        sample_ids.append((row.get("sample_id") or "").strip() or str(len(sample_ids)))
        groups.append((row.get("group") or "").strip() or UNKNOWN_GROUP)
    if not scores:
        raise ScoreSetFormatError("no data rows")
    return ScoreSet(
        scores=np.array(scores),
        labels=np.array(labels),
        sample_ids=np.array(sample_ids),
        groups=np.array(groups),
    )


# the report serializers as they were before one conversion rule replaced
# them, kept verbatim (as functions of the report) as the reference for
# AuditReport.to_dict and SweepResult.to_dict
def _clean(value: float) -> float | None:
    """A JSON value: ``None`` for a missing (NaN) value."""
    return None if math.isnan(value) else float(value)


def _record(result) -> dict | None:
    return None if result is None else asdict(result)


def audit_report_to_dict(self) -> dict:
    return {
        "kind": self.kind,
        "runs": list(self.runs),
        "series": {
            m: {s: [_clean(v) for v in vals] for s, vals in per.items()}
            for m, per in self.series.items()
        },
        "summaries": {
            m: {s: _record(b) for s, b in per.items()}
            for m, per in self.summaries.items()
        },
        "tests": {
            m: {c: _record(t) for c, t in per.items()} for m, per in self.tests.items()
        },
        "provenance": self.provenance,
    }


def sweep_result_to_dict(self) -> dict:
    return {
        "ratios": list(self.ratios),
        "runs": list(self.runs),
        "summaries": {
            m: {f"{r:g}": _record(b) for r, b in per.items()}
            for m, per in self.summaries.items()
        },
        "tests": {m: _record(t) for m, t in self.tests.items()},
        "provenance": self.provenance,
    }
