"""Independent brute-force reference implementations used to pin expected values.

Everything here is deliberately slow and literal: pairwise loops, explicit
threshold sweeps, boundary scans, full sign-pattern enumeration, adaptive
quadrature. None of it shares code with the package under test, except that
the score-CSV parser builds the package's ``ScoreSet`` and raises its
``ScoreSetFormatError``, the sorted subsample raises its
``DegenerateSampleError``, the one-row statistics return the package's result
records and raise its ``InsufficientPairsError``, and ``midranks`` and the
per-cell evaluation at the end read the package's stable sort (the per-cell
evaluation also its per-record tables).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import asdict, dataclass
from typing import IO, Sequence

import numpy as np
from scipy import integrate, special

from calaudit.calibration import _squared_errors
from calaudit.dataset import (
    UNKNOWN_GROUP,
    DegenerateSampleError,
    ScoreSet,
    ScoreSetFormatError,
)
from calaudit.stats import (
    BoxplotSummary,
    InsufficientPairsError,
    PairedTestResult,
    _stable_order,
)


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


def equal_width_bins_searchsorted(scores, n_bins) -> np.ndarray:
    """Equal-width bin index of every score by a binary search over the inner
    edges: the number of them below the score (NaN sorts after every edge)."""
    return np.searchsorted(np.linspace(0.0, 1.0, n_bins + 1)[1:-1], scores, side="left")


def log_likelihoods_sum_form(scores, labels, clip_epsilon) -> np.ndarray:
    """Every record's ``y * log(s) + (1 - y) * log(1 - s)`` as written, on
    scores clamped to [clip_epsilon, 1 - clip_epsilon]."""
    s = np.clip(np.asarray(scores, dtype=np.float64), clip_epsilon, 1.0 - clip_epsilon)
    y = np.asarray(labels)
    return y * np.log(s) + (1 - y) * np.log(1.0 - s)


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


# summarize and wilcoxon_signed_rank as they were before both became the
# one-row case of a row-wise core, kept verbatim as the reference for
# stats._summaries and stats._signed_rank_tests, except that the mid-ranks and
# the exact null come from the literal forms here
def summarize_one_row(values, quantile_rule: str = "linear") -> BoxplotSummary:
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ValueError("summarize needs at least one value")
    if not np.all(np.isfinite(v)):
        raise ValueError("summarize needs finite values")
    q1, med, q3 = np.quantile(v, [0.25, 0.5, 0.75], method=quantile_rule)
    return BoxplotSummary(
        mean=float(v.mean()),
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        iqr=float(q3 - q1),
        n=int(v.size),
    )


def _exact_counts(doubled_ranks) -> np.ndarray:
    """Counts of 2*W+ over all sign assignments, by convolution in the given order."""
    total = sum(doubled_ranks)
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for g in doubled_ranks:
        counts[g:] = counts[g:] + counts[: total + 1 - g]
    return counts


def wilcoxon_one_row(x, y) -> PairedTestResult:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional and equally long")
    d = x - y
    if np.isnan(d).any():
        raise ValueError("paired differences must not be NaN")
    d = d[d != 0.0]
    n = int(d.size)
    if n < 3:
        raise InsufficientPairsError(
            f"insufficient pairs: need >= 3 nonzero differences, got {n}"
        )
    ranks = np.array(_midranks_list(np.abs(d).tolist()), dtype=np.float64)
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    total = n * (n + 1) / 2.0

    if n <= 25:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        counts = _exact_counts(doubled.tolist())
        w2 = int(round(2.0 * w))
        total2 = int(doubled.sum())
        p = (counts[: w2 + 1].sum() + counts[total2 - w2 :].sum()) / 2.0**n
        return PairedTestResult(
            statistic=w, p_value=min(1.0, float(p)), n_effective=n, method="exact"
        )

    mu = total / 2.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts))
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    z = max(0.0, abs(w_plus - mu) - 0.5) / math.sqrt(sigma2)
    p = math.erfc(z / math.sqrt(2.0))
    return PairedTestResult(
        statistic=w, p_value=min(1.0, p), n_effective=n, method="normal_approx"
    )


# the modified Lentz loop of synthetic._beta_continued_fraction as it was
# before it computed in place, kept verbatim (its constants as parameters) as
# the reference for its bits
def beta_continued_fraction_allocating(
    a: float, b: float, x: np.ndarray, max_iterations=300, eps=1e-15, fpmin=1e-300
) -> np.ndarray:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, fpmin, where=np.abs(d) < fpmin)
    d = 1.0 / d
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, fpmin, where=np.abs(d) < fpmin)
        c = 1.0 + aa / c
        np.copyto(c, fpmin, where=np.abs(c) < fpmin)
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, fpmin, where=np.abs(d) < fpmin)
        c = 1.0 + aa / c
        np.copyto(c, fpmin, where=np.abs(c) < fpmin)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        converged |= np.abs(delta - 1.0) < eps
        if converged.all():
            break
    if not converged.all():
        raise RuntimeError(
            f"incomplete beta continued fraction did not converge for a={a}, b={b}"
        )
    return h


# synthetic.regularized_incomplete_beta as it was when it split its records
# by boolean masks, on the allocating continued fraction above (whose bits
# the package's in-place one keeps), for finite x in [0, 1]
def regularized_incomplete_beta_masked(x, alpha: float, beta: float):
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.asarray(x, dtype=np.float64).reshape(-1)
    if alpha == 1.0 and beta == 1.0:
        out = xa.copy()
    else:
        out = np.empty_like(xa)
        interior = (xa > 0.0) & (xa < 1.0)
        out[xa == 0.0] = 0.0
        out[xa == 1.0] = 1.0
        xi = xa[interior]
        ln_beta = math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta)
        front = np.exp(ln_beta + alpha * np.log(xi) + beta * np.log1p(-xi))
        res = np.empty_like(xi)
        direct = xi < (alpha + 1.0) / (alpha + beta + 2.0)
        if np.any(direct):
            res[direct] = (
                front[direct]
                * beta_continued_fraction_allocating(alpha, beta, xi[direct])
                / alpha
            )
        if np.any(~direct):
            res[~direct] = 1.0 - (
                front[~direct]
                * beta_continued_fraction_allocating(beta, alpha, 1.0 - xi[~direct])
                / beta
            )
        out[interior] = res
        if alpha == beta:
            out[xa == 0.5] = 0.5
        np.clip(out, 0.0, 1.0, out=out)
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(x))


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


def separable_masked(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether the llrs ``x`` of one class all lie strictly above or below
    those of the other, from each label's records picked by a boolean mask."""
    pos = x[y == 1]
    neg = x[y == 0]
    return bool(pos.min() > neg.max() or pos.max() < neg.min())


def subsample_indices_sorted(labels, fraction: float, seed) -> np.ndarray:
    """dataset.subsample_indices with its draw put in order by ``np.sort``."""
    labels = np.asarray(labels)
    n = labels.size
    m = int(round(fraction * n))
    if m < 2:
        raise DegenerateSampleError(f"subsample of {m} record(s) is too small")
    if m == n:
        idx = np.arange(n)
    else:
        idx = np.sort(np.random.default_rng(seed).choice(n, size=m, replace=False))
    chosen = labels[idx]
    if chosen.min() == chosen.max():
        raise DegenerateSampleError("subsample lost one of the label classes")
    return idx


def match_group_indices_clamped(labels, maj_idx, min_idx, seed) -> np.ndarray:
    """dataset._match_group_indices on valid groups, with each class's draw
    size clamped to the records of that class."""
    n_target = int(min_idx.size)
    maj_labels = labels[maj_idx]
    pos = maj_idx[maj_labels == 1]
    neg = maj_idx[maj_labels == 0]
    n_pos = int(round(n_target * pos.size / maj_idx.size))
    n_pos = min(n_pos, pos.size)
    n_neg = n_target - n_pos
    if n_neg > neg.size:
        n_neg = int(neg.size)
        n_pos = n_target - n_neg
    rng = np.random.default_rng(seed)
    parts = []
    if n_pos:
        parts.append(rng.choice(pos, size=n_pos, replace=False))
    if n_neg:
        parts.append(rng.choice(neg, size=n_neg, replace=False))
    return np.sort(np.concatenate(parts))


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
    for row in reader:
        line = reader.line_num
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


# The per-cell evaluation that the batch kernels replaced, kept as it was:
# every cell of an audit or sweep went through ``_metric_values`` on its own,
# with its own sort order read from the run's, its own bin sums and its own
# reductions. ``harness._cell_values`` must give each cell these values,
# bit for bit, and these error texts. The per-record tables, equal-width bins
# and stable sort it reads are the package's, which that change left as they
# were.

def _tie_bounds(sorted_values: np.ndarray) -> np.ndarray:
    """Bounds of the runs of equal values in an ascending array: run ``k``
    spans positions ``bounds[k]`` up to ``bounds[k + 1]``."""
    change = (sorted_values[1:] != sorted_values[:-1]).nonzero()[0] + 1
    return np.concatenate(([0], change, [sorted_values.size]))


def _block_midranks(bounds: np.ndarray) -> np.ndarray:
    """1-based average ranks of the positions of an ascending array, from its
    tie bounds: tied values share the mean of their positions."""
    starts, ends = bounds[:-1], bounds[1:]
    return ((starts + ends - 1) / 2.0 + 1.0).repeat(ends - starts)


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based average ranks; tied values share the mean of their positions."""
    v = np.asarray(values)
    order = _stable_order(v)
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = _block_midranks(_tie_bounds(v[order]))
    return ranks


def _equal_count_bins(positions: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-count bin index of every record, from its position in the stable
    sort of its set: ``np.array_split`` runs of those positions, larger first,
    gathered from the bin index of every position."""
    n = positions.size
    if n < n_bins:
        raise ValueError(
            f"equal_count binning needs at least n_bins={n_bins} samples, got {n}"
        )
    base, extras = divmod(n, n_bins)
    # the first `extras` bins hold base + 1 positions each, the rest base
    sizes = np.full(n_bins, base)
    sizes[:extras] += 1
    return np.repeat(np.arange(n_bins), sizes)[positions]


Gaps = tuple[np.ndarray, np.ndarray]


def _bin_gaps(
    scores: np.ndarray, labels: np.ndarray, membership: np.ndarray, n_bins: int
) -> Gaps:
    """Counts and |positive rate - mean score| of the non-empty bins, from
    per-bin sums accumulated in record order."""
    counts = np.bincount(membership, minlength=n_bins)
    score_sums = np.bincount(membership, weights=scores, minlength=n_bins)
    # bincount casts integer weights to float64, so labels need no copy
    label_sums = np.bincount(membership, weights=labels, minlength=n_bins)
    occupied = counts > 0
    counts = counts[occupied]
    return counts, np.abs(label_sums[occupied] - score_sums[occupied]) / counts


def _ece(gaps: Gaps) -> float:
    counts, gap = gaps
    return float(np.add.reduce(counts * gap) / np.add.reduce(counts))


def _mce(gaps: Gaps) -> float:
    return float(np.maximum.reduce(gaps[1]))


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


def _roc_auc(ranked: _Ranked, labels: np.ndarray) -> float:
    n_pos, n_neg = ranked.class_counts("roc_auc")
    ranks = np.empty(ranked.n, dtype=np.float64)
    ranks[ranked.order] = _block_midranks(ranked.bounds)
    # the positives' ranks are summed in record order
    u = np.add.reduce(ranks[labels == 1]) - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


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


def _normalized_ap(ap: float, ranked: _Ranked) -> float:
    """``(ap - pi) / (1 - pi)`` from the ``pr_auc`` value ``ap`` of the ranked
    set, for a caller that already has ``ap``."""
    if ranked.n_pos == ranked.n:
        raise ValueError("pr_auc_gain is undefined when every label is positive")
    pi = ranked.n_pos / ranked.n
    return float((ap - pi) / (1.0 - pi))


def _balanced_accuracy(ranked: _Ranked, threshold: float) -> float:
    n_pos, n_neg = ranked.class_counts("balanced_accuracy")
    # the records below the threshold are a prefix of the sorted order
    below = int(ranked.scores.searchsorted(threshold))
    below_pos = int(ranked.positives[below])
    return 0.5 * ((n_pos - below_pos) / n_pos + (below - below_pos) / n_neg)


class _lazy:
    """A method read as an attribute and computed on first read, like
    ``functools.cached_property`` but without the lock that Python 3.11 takes
    on every first read; a ``_Records`` or ``_Cell`` is private to one call."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class _Records:
    """A run's test records as arrays, with what every cell over them shares.

    ``platt_scores`` are the records' recalibrated scores, or ``None`` when the
    run has no calibrator.
    """

    scores: np.ndarray
    labels: np.ndarray
    platt_scores: np.ndarray | None
    cfg: object

    @_lazy
    def equal_width(self) -> np.ndarray:
        """Every record's equal-width bin; a record's bin does not depend on its cell."""
        return equal_width_bins_searchsorted(self.scores, self.cfg.n_bins)

    # per-record loss tables (see the module docstring), each built on first use
    @_lazy
    def log_likelihood(self) -> np.ndarray:
        return log_likelihoods_sum_form(self.scores, self.labels, self.cfg.clip_epsilon)

    @_lazy
    def squared_error(self) -> np.ndarray:
        return _squared_errors(self.scores, self.labels)

    @_lazy
    def platt_log_likelihood(self) -> np.ndarray:
        return log_likelihoods_sum_form(
            self._platt_scores(), self.labels, self.cfg.clip_epsilon
        )

    @_lazy
    def platt_squared_error(self) -> np.ndarray:
        return _squared_errors(self._platt_scores(), self.labels)

    def _platt_scores(self) -> np.ndarray:
        if self.platt_scores is None:
            raise ValueError("delta metrics require Platt-transformed scores")
        return self.platt_scores

    @_lazy
    def rank(self) -> np.ndarray:
        """Every record's position in the stable sort of all the scores."""
        order = _stable_order(self.scores)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return rank

    def positions(self, idx: np.ndarray) -> np.ndarray:
        """Positions of the records at sorted ``idx`` in the stable sort of their
        own scores, that is, the inverse of ``argsort(scores[idx], kind="stable")``.

        The run's stable sort orders ties by record index, and so does the
        stable sort of a sorted subset, so a record's position in its cell is
        the number of the cell's records that precede it in the run's order.
        """
        rank = self.rank[idx]
        inside = np.zeros(self.scores.size, dtype=bool)
        inside[rank] = True
        return inside.cumsum()[rank] - 1


class _Cell:
    """One evaluated subset: the records at sorted indices ``idx``, with the
    arrays, sorted view, bin gaps and scores its metrics share, each computed
    when a metric first reads it."""

    def __init__(self, records: _Records, idx: np.ndarray) -> None:
        self.records = records
        self.cfg = records.cfg
        self.idx = idx
        self.n = idx.size

    @_lazy
    def scores(self) -> np.ndarray:
        return self.records.scores[self.idx]

    @_lazy
    def labels(self) -> np.ndarray:
        return self.records.labels[self.idx]

    @_lazy
    def positions(self) -> np.ndarray:
        return self.records.positions(self.idx)

    @_lazy
    def ranked(self) -> _Ranked:
        """The cell's stable order is the inverse of its positions: no sort."""
        order = np.empty(self.n, dtype=np.intp)
        order[self.positions] = np.arange(self.n)
        return _Ranked(self.scores, self.labels, order)

    @_lazy
    def pr_auc(self) -> float:
        return _pr_auc(self.ranked)

    @_lazy
    def equal_width(self) -> Gaps:
        membership = self.records.equal_width[self.idx]
        return _bin_gaps(self.scores, self.labels, membership, self.cfg.n_bins)

    @_lazy
    def equal_count(self) -> Gaps:
        n_bins = self.cfg.n_bins
        membership = _equal_count_bins(self.positions, n_bins)
        return _bin_gaps(self.scores, self.labels, membership, n_bins)

    def _mean(self, table: np.ndarray) -> float:
        """Mean of a per-record table of the run over the cell's records:
        ``np.mean`` is this sum and division, without its wrapper."""
        return float(np.add.reduce(table[self.idx]) / self.n)

    @_lazy
    def cross_entropy(self) -> float:
        return -self._mean(self.records.log_likelihood)

    @_lazy
    def brier(self) -> float:
        return self._mean(self.records.squared_error)

    @property
    def platt_cross_entropy(self) -> float:
        return -self._mean(self.records.platt_log_likelihood)

    @property
    def platt_brier(self) -> float:
        return self._mean(self.records.platt_squared_error)


# metric name -> value on a cell; each entry picks what its estimator needs
# from the cell, so the sorted view, binnings, the PR area and the proper
# scoring rules are computed once per cell and shared by the metrics that read
# them. The scoring rules are means over the run's per-record tables gathered
# at the cell's indices: the same element-wise values as the estimators
# compute on the gathered scores, summed in the same record order, so the
# same bytes.
_METRICS = {
    "auc_roc": lambda c: _roc_auc(c.ranked, c.labels),
    "auc_pr": lambda c: c.pr_auc,
    "auc_prg": lambda c: _normalized_ap(c.pr_auc, c.ranked),
    "balanced_accuracy": lambda c: _balanced_accuracy(
        c.ranked, c.cfg.threshold
    ),
    "ece": lambda c: _ece(c.equal_width),
    "mce": lambda c: _mce(c.equal_width),
    "ada_ece": lambda c: _ece(c.equal_count),
    "cross_entropy": lambda c: c.cross_entropy,
    "brier": lambda c: c.brier,
    # the calibration parts, as decompose_psr defines them: raw minus Platt
    "delta_ce": lambda c: c.cross_entropy - c.platt_cross_entropy,
    "delta_brier": lambda c: c.brier - c.platt_brier,
}


def metric_values_one_cell(
    names: Sequence[str], records: _Records, idx: np.ndarray
) -> tuple[dict[str, float], dict[str, str]]:
    """Compute each metric independently on the records at sorted ``idx``;
    undefined ones come back as NaN, with the reason under their name."""
    cell = _Cell(records, idx)
    values: dict[str, float] = {}
    errors: dict[str, str] = {}
    for name in names:
        try:
            values[name] = float(_METRICS[name](cell))
        except ValueError as exc:
            values[name] = math.nan
            errors[name] = str(exc)
    return values, errors
