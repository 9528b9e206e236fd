"""Experiment orchestration: group audits, size-matched audits, sampling-ratio sweeps.

Every entry point is a deterministic function of its inputs, the config and the
master seed: per-cell seeds are derived from (seed, stream, run, ...) keys, so
results never depend on execution order.

A cell (one run and one group, or one run and one sampling ratio) is a sorted
array of indices into its run's test records, and its metrics read the
gathered ``scores[idx]``, ``labels[idx]`` and Platt scores; no ``ScoreSet`` is
built per cell. Cells are queued as they are drawn and evaluated in batches
(``_Batch``): the queue is evaluated whenever its cells hold at least
``_BATCH_RECORDS`` records, and once more at the end, so each numpy call is
paid once per batch rather than once per cell. A batch lays its cells'
records out cell after cell, each gathered once from every per-run table it
needs. A run's tables are built on first use and kept with its records,
which are freed once no queued cell refers to them and the loop has moved on
to the next run. Each cell's metric notes go where the cell was queued, so
the notes read as if each cell had been evaluated when it was drawn.

Each run's test scores are stable-sorted once. That sort breaks ties by record
index, and so does the stable sort of a sorted subset, so the run's order
restricted to a cell is exactly the cell's own stable order: a record's
position in its cell is the number of the cell's records before it in the
run's order. The cell's ranks, marked in a run-sized mask and read back in
ascending order, are each given their position in one run-sized lookup
table per batch, and every record of the cell reads its position there at
its rank. A cell that is its whole run, as every sweep run's ratio 1 is,
needs no table: its positions are the ranks. A
cell's equal-count (AdaECE) bins are gathered from those positions out of the
bin pattern, without a sort per cell. The same order, scattered from those
positions, gives the batch's sorted view (``discrimination._Ranked``): its tie
blocks and running count of positives give every cell's ROC and PR areas and
balanced accuracy. The records themselves are never reordered: subsample seeds
draw record indices (a subsample of every record takes no draw), and each bin
sum accumulates in record-index order. The synthetic runs are ``ScoreSet``
splits built without sample ids or group tags; no sweep reads either, so
neither is rendered as strings.

The proper scoring rules come from per-run loss tables: each record's
``y*log(s) + (1-y)*log(1-s)`` on clipped scores and its ``(s - y)**2``, raw
and Platt, each built once per run and only when a requested metric reads it.
A cell's cross-entropy or Brier score is the mean of its gathered entries:
every entry is the value the estimator computes for that record on the
cell's own arrays, in the same record order.

Every value keeps the bits of evaluating the cell as a set of its own,
because a floating-point sum in another order or in other blocks could differ
in the last digit and the outputs are byte-identical. So a batch sums only in
ways that keep them: every bin sum of every cell comes from one
``np.bincount`` with each cell's bins offset by ``n_bins``, which adds each
bin's records in record order, as the call on the cell alone does; each
order-dependent reduction (a cell's mean of a table, the ECE over its
occupied bins, the PR area over its tie blocks) is taken along the last axis
of a C-contiguous block of the cells with as many terms
(``stats._RaggedRows``), and numpy computes each row of such a block exactly
as the 1-D call on that row; and the remaining sums are exact in any order:
twice the ROC mid-rank sums and the label counts are integers, and the MCE is
a maximum. A segmented sum (``np.add.reduceat``) adds sequentially, not
pairwise as ``np.add.reduce`` does, and padding cells into rows of one
length changes the pairwise blocks, so neither is used for an inexact sum.

Once every run is evaluated, the values form one float64 table indexed by
metric, series and run, and every summary and paired test comes from a few
row-wise array calls over it (``stats._summaries`` and
``stats._signed_rank_tests``), one per group of rows with the same number of
values. They keep the bits of a call on each series alone by the same rule:
the rows of a group are compressed, in order and without padding, into a
C-contiguous block, whose last-axis quantile or mean numpy computes per row
exactly as for the row alone; the signed-rank sums add half-integers and the
exact p-values add integer counts, which float64 holds exactly in any order.
"""

from __future__ import annotations

import math
import numbers
import os
import signal
import sys
import threading
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, partial
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from . import calibration, discrimination
from ._version import __version__
from .dataset import (
    DegenerateSampleError,
    ScoreSet,
    UNKNOWN_GROUP,
    _match_group_indices,
    _write_csv,
    _write_json,
    subsample_indices,
)
# decompose_psr is not called here (cells read the per-run loss tables), but
# bench/tracing.py wraps harness.decompose_psr by name, so the name stays bound
from .platt import apply_platt, decompose_psr, fit_platt, to_llr  # noqa: F401
# summarize and wilcoxon_signed_rank are not called here (an audit's summaries
# and tests come from the row-wise cores), but bench/tracing.py wraps them as
# harness attributes by name, so the names stay bound
from .stats import (  # noqa: F401
    InsufficientPairsError,
    _RaggedRows,
    _signed_rank_tests,
    _stable_order,
    _summaries,
    _undefined,
    summarize,
    wilcoxon_signed_rank,
)

DEFAULT_SEED = 101
DEFAULT_RATIOS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

DISCRIMINATION_METRICS = ("auc_roc", "auc_pr", "auc_prg", "balanced_accuracy")
CALIBRATION_METRICS = ("ece", "mce", "ada_ece", "cross_entropy", "brier")
DELTA_METRICS = ("delta_ce", "delta_brier")
ALL_METRICS = DISCRIMINATION_METRICS + CALIBRATION_METRICS + DELTA_METRICS
SWEEP_METRICS = ("ece", "mce", "ada_ece", "delta_ce", "delta_brier")

SERIES_MAJORITY = "majority"
SERIES_MINORITY = "minority"
SERIES_MATCHED = "majority_matched"

ARM_NAIVE = "naive"
ARM_SIZE_MATCHED = "size_matched"
ARM_SIZE_EFFECT = "size_effect"

# the fewest records of queued cells that are evaluated as one batch (see the
# module docstring): a C4-shaped audit, 25 runs of about 1,100 cell records,
# is two batches, and a 20k-record sweep run's ratios from 0.1 to 1 are five
# batches of one to four cells. Twice this makes a C4 audit one batch, but a
# batch's arrays grow with it: the benchmark's peak_rss_mb (median of three
# runs) then rose 1.3 MB on small_group_audits, and 0.7 MB on synthetic_sweep
# run on one CPU, its scenarios in turn
_BATCH_RECORDS = 2**14

# derived-seed stream tags, so no two sampling contexts share a seed key
_STREAM_MATCH = 2
_STREAM_SUBSAMPLE = 3
_STREAM_POPULATION = 4
_STREAM_SPLIT = 5


def _integer(name: str, value, low: int) -> int:
    """``value`` as an ``int`` of at least ``low``. A ``bool`` or a float is
    refused; a numpy integer becomes an ``int``, which the JSON outputs can encode."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a ``float``. A ``bool`` or a non-real value is refused; a
    numpy float becomes a ``float``, which the JSON outputs can encode."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class AuditConfig:
    """Knobs shared by all experiment families; every estimator convention is explicit."""

    metrics: tuple[str, ...] = ALL_METRICS
    n_bins: int = calibration.DEFAULT_N_BINS
    clip_epsilon: float = calibration.DEFAULT_CLIP_EPSILON
    threshold: float = 0.5
    seed: int = DEFAULT_SEED
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    majority: str | None = None
    minority: str | None = None
    population_size: int = 100_000
    validation_fraction: float = 0.2
    test_fraction: float = 0.2
    max_subsample_retries: int = 10
    quantile_rule: str = "linear"

    def __post_init__(self) -> None:
        metrics = tuple(self.metrics)
        unknown = sorted(set(metrics) - set(ALL_METRICS))
        if unknown:
            raise ValueError(f"unknown metric(s): {', '.join(unknown)}")
        if not metrics:
            raise ValueError("at least one metric is required")
        if len(set(metrics)) != len(metrics):
            raise ValueError("metrics must not repeat a name")
        ratios = tuple(_real("ratios", r) for r in self.ratios)
        if not ratios or any(not 0.0 < r <= 1.0 for r in ratios):
            raise ValueError("ratios must lie in (0, 1]")
        if list(ratios) != sorted(ratios):
            raise ValueError("ratios must be sorted ascending")
        # outputs key and label ratios by f"{r:g}"; two that print alike would collide
        if len({f"{r:g}" for r in ratios}) != len(ratios):
            raise ValueError("ratios must be distinct as printed (6 significant digits)")
        # a sweep tests its first ratio against its last
        if len(ratios) < 2:
            raise ValueError(f"a sweep needs at least two ratios, got {list(ratios)}")
        for name, low in (
            ("seed", 0), ("n_bins", 1), ("max_subsample_retries", 0), ("population_size", 2)
        ):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        for name in ("threshold", "clip_epsilon", "validation_fraction", "test_fraction"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be a finite number in [0, 1]")
        try:
            np.quantile([0.0], 0.5, method=self.quantile_rule)
        except ValueError as exc:
            raise ValueError(f"quantile_rule: {exc}") from None
        if not 0.0 < self.clip_epsilon < 0.5:
            raise ValueError("clip_epsilon must lie in (0, 0.5)")
        if 1.0 - self.clip_epsilon == 1.0:
            # to_llr would then map a score of 1.0 to +inf
            raise ValueError(
                f"clip_epsilon {self.clip_epsilon!r} cannot keep scores off 1: "
                "1 - clip_epsilon rounds to 1 (it must exceed 2**-54)"
            )
        for name in ("majority", "minority"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a str group tag, got {getattr(self, name)!r}")
        if (self.majority is None) != (self.minority is None):
            raise ValueError("set both majority and minority tags, or neither")
        if self.majority is not None and self.majority == self.minority:
            raise ValueError(
                f"majority and minority must be different tags (both {self.majority!r})"
            )
        if not (
            0.0 < self.validation_fraction
            and 0.0 < self.test_fraction
            and self.validation_fraction + self.test_fraction <= 1.0
        ):
            raise ValueError("validation/test fractions must be positive and sum to <= 1")
        # a synthetic split holds round(fraction * population_size) records
        for split in ("validation", "test"):
            fraction = getattr(self, f"{split}_fraction")
            if round(fraction * self.population_size) == 0:
                raise ValueError(
                    f"population_size {self.population_size} gives an empty {split} split: "
                    f"{split}_fraction {fraction:g} of it rounds to 0 records"
                )
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "ratios", ratios)


@dataclass(frozen=True)
class AuditRun:
    """One evaluation run: the validation set that fits the calibrator, plus its test set."""

    run_index: int
    validation: ScoreSet
    test: ScoreSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "run_index", _integer("run_index", self.run_index, 0))


@dataclass(frozen=True)
class AuditReport:
    """Per-run metric series, boxplot summaries and paired tests, plus provenance."""

    kind: str
    runs: tuple[int, ...]
    series: dict
    summaries: dict
    tests: dict
    provenance: dict

    def to_dict(self) -> dict:
        return _jsonable(self)


@dataclass(frozen=True)
class SweepResult:
    """Long-form (run, ratio, metric, value) table with summaries and min-vs-max tests."""

    ratios: tuple[float, ...]
    runs: tuple[int, ...]
    rows: tuple
    summaries: dict
    tests: dict
    provenance: dict

    def to_dict(self) -> dict:
        """The result's JSON data, without the long-form ``rows``."""
        return _jsonable({k: v for k, v in vars(self).items() if k != "rows"})


def _fields(record) -> dict:
    """A record's (dataclass's) fields by name, the values themselves: unlike
    ``dataclasses.asdict``, nothing is copied."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _jsonable(value):
    """The JSON data of a result, by one rule: a record (dataclass) becomes a
    dict of its fields, a tuple a list, a missing (NaN) value ``None``, and a
    float key, such as a sweep's ratio, ``f"{r:g}"``; dicts and lists are
    converted item by item."""
    if is_dataclass(value):
        value = _fields(value)
    if isinstance(value, dict):
        return {
            f"{k:g}" if isinstance(k, float) else k: _jsonable(v) for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _csv_value(value: float) -> str:
    """A CSV cell: blank for a missing (NaN) value."""
    return "" if math.isnan(value) else str(value)


@dataclass(frozen=True, eq=False)
class _Records:
    """A run's test records as arrays, with per-record tables that every cell
    over them reads, each built on first use and freed with the records.

    ``platt_scores`` are the records' recalibrated scores, NaN for a record
    that has no calibrator, so that its Platt tables and every cell's Platt
    mean over it are NaN too.
    """

    scores: np.ndarray
    labels: np.ndarray
    platt_scores: np.ndarray
    cfg: AuditConfig

    @cached_property
    def equal_width(self) -> np.ndarray:
        """Every record's equal-width bin; a record's bin does not depend on its cell."""
        return calibration._equal_width_bins(self.scores, self.cfg.n_bins)

    @cached_property
    def rank(self) -> np.ndarray:
        """Every record's position in the stable sort of all the scores."""
        order = _stable_order(self.scores)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return rank

    # per-record loss tables (see the module docstring)
    @cached_property
    def log_likelihood(self) -> np.ndarray:
        return calibration._log_likelihoods(self.scores, self.labels, self.cfg.clip_epsilon)

    @cached_property
    def squared_error(self) -> np.ndarray:
        return calibration._squared_errors(self.scores, self.labels)

    @cached_property
    def platt_log_likelihood(self) -> np.ndarray:
        return calibration._log_likelihoods(
            self.platt_scores, self.labels, self.cfg.clip_epsilon
        )

    @cached_property
    def platt_squared_error(self) -> np.ndarray:
        return calibration._squared_errors(self.platt_scores, self.labels)


class _Batch:
    """Cells evaluated together: each cell is the records at sorted indices
    ``idx`` of one run, ``(records, idx)``, and the batch lists the cells'
    records cell after cell. What the metrics share is computed over the
    whole batch when a metric first reads it."""

    def __init__(self, cells: Sequence[tuple[_Records, np.ndarray]]) -> None:
        self.cfg = cells[0][0].cfg
        self.sizes = np.array([idx.size for _, idx in cells])
        self.run_sizes = np.array([records.scores.size for records, _ in cells])
        # consecutive cells of one run share one gather of each run table
        runs: list[tuple[_Records, list[np.ndarray]]] = []
        for records, idx in cells:
            if runs and runs[-1][0] is records:
                runs[-1][1].append(idx)
            else:
                runs.append((records, [idx]))
        self.runs = [(records, np.concatenate(parts)) for records, parts in runs]

    def gather(self, table: str) -> np.ndarray:
        """A run attribute of ``_Records`` at the batch's records, one ``take``
        per run."""
        out = None
        at = 0
        for records, idx in self.runs:
            values = getattr(records, table)
            if out is None:
                out = np.empty(self.sizes.sum(), dtype=values.dtype)
            # the indices are in range: "clip" writes straight into out, where
            # "raise" would gather into a buffer first
            values.take(idx, out=out[at : at + idx.size], mode="clip")
            at += idx.size
        return out

    @cached_property
    def scores(self) -> np.ndarray:
        return self.gather("scores")

    @cached_property
    def labels(self) -> np.ndarray:
        return self.gather("labels")

    @cached_property
    def position(self) -> np.ndarray:
        """Every record's position in the batch with each cell in its own
        stable order (see the module docstring): its cell's first position
        plus the number of the cell's records before it in its run's order,
        looked up at its rank in a table of the cell's ranks in ascending
        order, or, for a cell that is its whole run, its rank."""
        rank = self.gather("rank")
        position = np.empty_like(rank)
        lut = np.empty(self.run_sizes.max(), dtype=position.dtype)
        at = 0
        for n, n_run in zip(self.sizes.tolist(), self.run_sizes.tolist()):
            cell = rank[at : at + n]
            out = position[at : at + n]
            if n == n_run:
                # a cell's indices are distinct, so this cell is its whole run,
                # where a record's position is its rank
                np.add(cell, at, out=out)
            else:
                # the cell's ranks in ascending order, each given its
                # position, then looked up at every record of the cell
                inside = np.zeros(n_run, dtype=bool)
                inside[cell] = True
                lut[np.flatnonzero(inside)] = np.arange(at, at + n)
                lut.take(cell, out=out, mode="clip")
            at += n
        return position

    @cached_property
    def ranked(self) -> discrimination._Ranked:
        """The cells' sorted views, from their positions: no sort."""
        order = np.empty_like(self.position)
        order[self.position] = np.arange(order.size)
        return discrimination._Ranked(self.scores[order], self.labels[order], self.sizes)

    @cached_property
    def pr_auc(self) -> tuple[np.ndarray, dict[int, str]]:
        return discrimination._pr_auc(self.ranked)

    def _gaps(self, bins: np.ndarray) -> calibration.Gaps:
        return calibration._bin_gaps(
            bins, self.scores, self.labels, self.sizes.size, self.cfg.n_bins
        )

    @cached_property
    def equal_width(self) -> calibration.Gaps:
        n_bins = self.cfg.n_bins
        bins = self.gather("equal_width")
        bins += np.arange(0, self.sizes.size * n_bins, n_bins).repeat(self.sizes)
        return self._gaps(bins)

    @cached_property
    def ada_ece(self) -> tuple[np.ndarray, dict[int, str]]:
        n_bins = self.cfg.n_bins
        bins = calibration._equal_count_bins(self.position, self.sizes, n_bins)
        return (
            calibration._ece(self._gaps(bins)),
            calibration._too_few_for_equal_count(self.sizes, n_bins),
        )

    @cached_property
    def cell_rows(self) -> _RaggedRows:
        return _RaggedRows(self.sizes)

    def mean(self, table: str) -> np.ndarray:
        """Each cell's mean of a per-record table of its run: the sum, row-wise
        on cells of equal size, and the division of ``np.mean``."""
        return self.cell_rows.sums(self.gather(table)) / self.sizes

    @cached_property
    def cross_entropy(self) -> np.ndarray:
        return -self.mean("log_likelihood")

    @cached_property
    def brier(self) -> np.ndarray:
        return self.mean("squared_error")

    def delta(self, raw: np.ndarray, platt: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
        """A calibration part, as decompose_psr defines it: raw minus Platt;
        undefined where a record of the cell has no Platt score."""
        return raw - platt, _undefined(
            np.isnan(platt), "delta metrics require Platt-transformed scores"
        )


# metric name -> (values, errors) of a batch; each entry picks what its
# estimator needs from the batch, so the sorted views, binnings, the PR area
# and the proper scoring rules are computed once per batch and shared by the
# metrics that read them. The scoring rules are means over the runs'
# per-record tables gathered at the cells' records: the same element-wise
# values as the estimators compute on a cell's own arrays, summed in the
# same record order, so the same bytes.
_METRICS = {
    "auc_roc": lambda b: discrimination._roc_auc(b.ranked),
    "auc_pr": lambda b: b.pr_auc,
    "auc_prg": lambda b: discrimination._normalized_ap(b.pr_auc, b.ranked),
    "balanced_accuracy": lambda b: discrimination._balanced_accuracy(
        b.ranked, b.cfg.threshold
    ),
    "ece": lambda b: (calibration._ece(b.equal_width), {}),
    "mce": lambda b: (calibration._mce(b.equal_width), {}),
    "ada_ece": lambda b: b.ada_ece,
    "cross_entropy": lambda b: (b.cross_entropy, {}),
    "brier": lambda b: (b.brier, {}),
    "delta_ce": lambda b: b.delta(b.cross_entropy, -b.mean("platt_log_likelihood")),
    "delta_brier": lambda b: b.delta(b.brier, b.mean("platt_squared_error")),
}


def _cell_values(
    names: Sequence[str], cells: Sequence[tuple[_Records, np.ndarray]]
) -> tuple[np.ndarray, dict[int, dict[str, str]]]:
    """Every metric of ``names`` on every cell ``(records, idx)`` of one
    config: a cells x metrics array, NaN where a metric is undefined, and
    under each such cell's number, the reasons by metric, in ``names`` order."""
    batch = _Batch(cells)
    values = np.empty((len(cells), len(names)))
    errors: dict[int, dict[str, str]] = {}
    for k, name in enumerate(names):
        values[:, k], undefined = _METRICS[name](batch)
        if undefined:
            values[list(undefined), k] = math.nan
            for c, why in undefined.items():
                errors.setdefault(c, {})[name] = why
    return values, errors


def _metric_values(
    names: Sequence[str], records: _Records, idx: np.ndarray
) -> tuple[dict[str, float], dict[str, str]]:
    """Compute each metric independently on the records at sorted ``idx``;
    undefined ones come back as NaN, with the reason under their name."""
    values, errors = _cell_values(names, [(records, idx)])
    return dict(zip(names, values[0].tolist())), errors.get(0, {})


def _metric_block(records: _Records, idx: np.ndarray) -> dict:
    values, errors = _metric_values(
        DISCRIMINATION_METRICS + CALIBRATION_METRICS, records, idx
    )
    return {
        "n": int(idx.size),
        "prevalence": float(records.labels[idx].mean()),
        "metrics": values,
        "errors": errors,
    }


def evaluate_scoreset(
    scoreset: ScoreSet, config: AuditConfig | None = None, by_group: bool = False
) -> dict:
    """Every discrimination and calibration metric of one set, as the JSON
    blocks of ``calaudit metrics``: ``overall`` over all records and, with
    ``by_group``, ``groups`` with one block per group tag.

    A block holds ``n``, ``prevalence``, ``metrics`` (``None`` where a metric
    is undefined) and ``errors`` (metric name -> reason).
    """
    cfg = config if config is not None else AuditConfig()
    # no calibrator (the blocks hold no delta metric): a zero-stride NaN per record
    records = _Records(
        scoreset.scores, scoreset.labels, np.broadcast_to(math.nan, scoreset.n), cfg
    )
    blocks = {"overall": _metric_block(records, np.arange(scoreset.n))}
    if by_group:
        blocks["groups"] = {
            tag: _metric_block(records, np.flatnonzero(scoreset.groups == tag))
            for tag in sorted(scoreset.group_counts())
        }
    return _jsonable(blocks)


def _fit_run_calibrator(
    run: AuditRun, cfg: AuditConfig, notes: list[str]
) -> tuple[dict, _Records]:
    """Fit Platt scaling on the run's validation set and apply it to its test set.

    Returns the run's ``platt`` provenance entry and its test records with
    their Platt scores. A fit that fails or does not converge (separable
    validation data) is noted and gives every test record a NaN Platt score,
    so only the run's delta metrics go missing.
    """
    test = run.test
    llr = to_llr(run.validation.scores, cfg.clip_epsilon)
    try:
        params = fit_platt(llr, run.validation.labels)
    except ValueError as exc:
        notes.append(f"run {run.run_index}: Platt fit failed: {exc}")
        diag = {"run": run.run_index, "error": str(exc)}
    else:
        diag = {"run": run.run_index, **_fields(params)}
        if params.converged:
            platt_scores = apply_platt(params, to_llr(test.scores, cfg.clip_epsilon))
            return diag, _Records(test.scores, test.labels, platt_scores, cfg)
        notes.append(f"run {run.run_index}: Platt fit did not converge")
    return diag, _Records(test.scores, test.labels, np.full(test.n, math.nan), cfg)


def _group_totals(runs: Sequence[AuditRun]) -> list[tuple[str, int]]:
    """Every tag of the runs' test records but the unknown one, with its total
    count, largest first (ties by tag)."""
    totals: Counter = Counter()
    for run in runs:
        for tag, count in run.test.group_counts().items():
            if tag != UNKNOWN_GROUP:
                totals[tag] += count
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))


def _resolve_group_pair(
    totals: list[tuple[str, int]], cfg: AuditConfig
) -> tuple[str, str]:
    if cfg.majority is not None and cfg.minority is not None:
        return cfg.majority, cfg.minority
    if len(totals) < 2:
        raise ValueError(
            "audits need two groups in the test sets; tag the records or pass "
            "explicit majority/minority tags"
        )
    return totals[0][0], totals[1][0]


def _evaluate(
    runs: Iterable[AuditRun],
    cfg: AuditConfig,
    kind: str,
    series: Sequence,
    arms: dict[str, tuple],
    label: Callable[[object], str],
    cells: Callable[[AuditRun, list[str]], Iterable[tuple]],
) -> AuditReport:
    """The one evaluation loop behind both audits and the sampling sweep.

    Runs are consumed one at a time. Each run fits its calibrator, then
    ``cells(run, notes)`` yields ``(series, idx)`` for each of the run's cells:
    sorted test-record indices, or ``None`` for a cell that could not be drawn,
    whose note the source has written. A cell that is ``None`` or empty (noted
    as absent) has every metric missing; a metric undefined on a cell is
    missing alone, noted as ``run <i> <label> <metric>: <reason>``. Cells are
    queued and evaluated in batches (see the module docstring); each cell's
    notes go where the cell was queued, so the notes read as if every cell
    were evaluated at once.

    The values then form one table indexed by metric, series and run. Every
    (metric, series) row is summarized, and each arm, a pair of series, gets
    a paired Wilcoxon test per metric over the runs where both values are
    finite: all summaries and all tests come from the row-wise cores of
    ``stats``, which give each row the bits of a call on that row alone.
    """
    slot = {s: k for k, s in enumerate(series)}
    run_ids: list[int] = []
    platt: list[dict] = []
    notes: list[str] = []
    queue: list[tuple[_Records, np.ndarray]] = []
    # per queued cell: its series, its run's position and index, and the
    # length of the notes when it was queued, where its metric notes go
    queued: list[tuple[object, int, int, int]] = []
    evaluated: list[tuple[int, int]] = []  # (series slot, run position) of each cell
    blocks: list[np.ndarray] = []  # each batch's cells x metrics values
    queued_records = 0

    def evaluate_queue() -> None:
        values, errors = _cell_values(cfg.metrics, queue)
        blocks.append(values)
        # last first, so that the positions of earlier cells still hold
        for c in sorted(errors, reverse=True):
            s, _, i, at = queued[c]
            notes[at:at] = [f"run {i} {label(s)} {m}: {why}" for m, why in errors[c].items()]
        evaluated.extend((slot[s], r) for s, r, _, _ in queued)
        queue.clear()
        queued.clear()

    for run in runs:
        i = run.run_index
        if i in run_ids:
            raise ValueError(f"duplicate run_index {i}")
        run_ids.append(i)
        diag, records = _fit_run_calibrator(run, cfg, notes)
        platt.append(diag)
        for s, idx in cells(run, notes):
            if idx is None or idx.size == 0:
                if idx is not None:
                    notes.append(f"run {i}: {label(s)} absent from test set")
            else:
                queue.append((records, idx))
                queued.append((s, len(run_ids) - 1, i, len(notes)))
                queued_records += idx.size
                if queued_records >= _BATCH_RECORDS:
                    evaluate_queue()
                    queued_records = 0
    if queue:
        evaluate_queue()
    if not run_ids:
        raise ValueError("no runs supplied")
    table = np.full((len(cfg.metrics), len(series), len(run_ids)), math.nan)
    if evaluated:
        at = np.array(evaluated).T
        table[:, at[0], at[1]] = np.concatenate(blocks).T
    # a missing value on either side is NaN, and so is the difference
    first, second = (table[:, [slot[pair[k]] for pair in arms.values()]] for k in (0, 1))
    results = iter(_signed_rank_tests((first - second).reshape(-1, len(run_ids))))
    tests: dict = {m: {} for m in cfg.metrics}
    for m in cfg.metrics:
        for arm in arms:
            result = next(results)
            if isinstance(result, InsufficientPairsError):
                tests[m][arm] = None
                notes.append(f"{m} {arm}: {result}")
            else:
                tests[m][arm] = result
    summaries = iter(_summaries(table.reshape(-1, len(run_ids)), cfg.quantile_rule))
    provenance = {
        "config": _fields(cfg), "version": __version__, "platt": platt, "notes": notes
    }
    return AuditReport(
        kind,
        tuple(run_ids),
        {m: dict(zip(series, rows)) for m, rows in zip(cfg.metrics, table.tolist())},
        {m: {s: next(summaries) for s in series} for m in cfg.metrics},
        tests,
        provenance,
    )


def _audit(
    runs: Sequence[AuditRun], config: AuditConfig | None, kind: str
) -> AuditReport:
    """The body of both audits; ``kind`` picks a table of series specs and the arms.

    A spec ``(name, tag, matched_to)`` is the test records of ``tag`` or, when
    ``matched_to`` is a tag, their label-stratified draw at its size. An arm
    pairs two names; the group audit's one arm is the size-matched naive arm.
    """
    cfg = config if config is not None else AuditConfig()
    runs = list(runs)
    if not runs:
        raise ValueError("no runs supplied")
    totals = _group_totals(runs)
    majority, minority = _resolve_group_pair(totals, cfg)
    if kind == "size_matched":
        specs = ((SERIES_MAJORITY, majority, None), (SERIES_MINORITY, minority, None),
                 (SERIES_MATCHED, majority, minority))
        arms = {
            ARM_NAIVE: (SERIES_MAJORITY, SERIES_MINORITY),
            ARM_SIZE_MATCHED: (SERIES_MATCHED, SERIES_MINORITY),
            ARM_SIZE_EFFECT: (SERIES_MAJORITY, SERIES_MATCHED),
        }
        label = "series {}".format
    else:
        specs = ((majority, majority, None), (minority, minority, None))
        arms = {"majority_vs_minority": (majority, minority)}
        label = "group {!r}".format
    match_seeds: list[dict] = []

    def cells(run: AuditRun, notes: list[str]) -> list[tuple]:
        # a list, not a generator: every series is drawn (and noted) before any is queued
        found = {t: np.flatnonzero(run.test.groups == t) for t in (majority, minority)}
        drawn = []
        for name, tag, matched_to in specs:
            idx = found[tag]
            if matched_to is not None:
                seed = [cfg.seed, _STREAM_MATCH, run.run_index]
                try:
                    idx = _match_group_indices(
                        run.test.labels, tag, idx, matched_to, found[matched_to], seed
                    )
                except ValueError as exc:
                    # only this series goes missing; its groups are still evaluated
                    idx = None
                    notes.append(f"run {run.run_index}: {exc}")
                else:
                    match_seeds.append({"run": run.run_index, "seed": seed})
            drawn.append((name, idx))
        return drawn

    report = _evaluate(runs, cfg, kind, [spec[0] for spec in specs], arms, label, cells)
    report.provenance["notes"][:0] = [
        f"group {tag!r} ({count} test records) not audited"
        for tag, count in totals
        if tag not in (majority, minority)
    ]
    report.provenance["groups"] = {"majority": majority, "minority": minority}
    if kind == "size_matched":
        report.provenance["match_seeds"] = match_seeds
        report.provenance["arms"] = {arm: list(pair) for arm, pair in arms.items()}
    return report


def run_group_audit(
    runs: Sequence[AuditRun], config: AuditConfig | None = None
) -> AuditReport:
    """Per-group metric comparison over runs.

    Each run fits Platt scaling on its full validation set (all groups
    combined), evaluates every configured metric separately on the majority
    and minority test records, and the per-metric series are compared with a
    paired Wilcoxon test across runs. Runs where a group is absent or a metric
    is undefined are recorded as missing and dropped from the pairing.
    """
    return _audit(runs, config, "group")


def run_size_matched_audit(
    runs: Sequence[AuditRun], config: AuditConfig | None = None
) -> AuditReport:
    """Group audit with the majority additionally subsampled to the minority's size.

    Three comparison arms per metric: naive (majority vs minority),
    size_matched (size-matched majority vs minority, the fair comparison) and
    size_effect (majority vs its size-matched subsample, isolating the pure
    sample-size effect). Match seeds are recorded for exact replay.
    """
    return _audit(runs, config, "size_matched")


def run_sampling_sweep(
    runs: Iterable[AuditRun], config: AuditConfig | None = None
) -> SweepResult:
    """Metric values for every run at every sampling ratio.

    Each run first fits Platt scaling on its validation set, for the delta
    metrics. Each (run, ratio) cell subsamples the run's test set without replacement
    with a seed derived from (seed, run, ratio position); degenerate draws are
    retried with fresh derived seeds up to the configured bound, then recorded
    as missing. The per-metric test compares the smallest against the largest
    ratio, paired by run.

    The sweep is an audit whose series are the ratios and whose one arm is
    that comparison; its rows are read off the series.
    """
    cfg = config if config is not None else AuditConfig()
    ratios = cfg.ratios
    comparison = f"ratio {ratios[0]:g} vs {ratios[-1]:g}"
    attempts = cfg.max_subsample_retries + 1

    def cells(run: AuditRun, notes: list[str]):
        # a generator, so each ratio is drawn, and noted, just before it is evaluated
        for position, ratio in enumerate(ratios):
            for attempt in range(attempts):
                seed = [cfg.seed, _STREAM_SUBSAMPLE, run.run_index, position, attempt]
                try:
                    idx = subsample_indices(run.test.labels, ratio, seed)
                except DegenerateSampleError:
                    continue
                break
            else:
                idx = None
                notes.append(
                    f"run {run.run_index} ratio {ratio:g}: degenerate subsample after "
                    f"{attempts} attempts; recorded missing"
                )
            yield ratio, idx

    report = _evaluate(
        runs, cfg, "sweep", ratios, {comparison: (ratios[0], ratios[-1])},
        "ratio {:g}".format, cells,
    )
    provenance = report.provenance
    del provenance["platt"]  # sweep outputs do not record the Platt fits
    provenance["comparison"] = f"{comparison}, paired by run"
    provenance["subsample_seed_scheme"] = (
        f"[seed, {_STREAM_SUBSAMPLE}, run, ratio_position, attempt]"
    )
    return SweepResult(
        ratios=ratios,
        runs=report.runs,
        rows=tuple(
            (run, r, m, report.series[m][r][k])
            for k, run in enumerate(report.runs)
            for r in ratios
            for m in cfg.metrics
        ),
        summaries=report.summaries,
        tests={m: per[comparison] for m, per in report.tests.items()},
        provenance=provenance,
    )


def run_synthetic_experiment(
    scenarios: Sequence,
    n_runs: int,
    config: AuditConfig | None = None,
) -> dict[str, SweepResult]:
    """Sampling sweeps over de-calibration scenarios with known true posteriors.

    Per scenario: one population is generated, then each run draws disjoint
    validation/test splits (the train share is unused: there is no model to
    fit), fits Platt scaling on the validation scores, and sweeps the test set
    over the configured ratios. Bin metrics use the pre-calibration scores;
    the delta metrics compare pre- against post-calibration scores.

    Scenarios are independent and fully seeded, so on Linux they are shared
    out over W processes, one per CPU the process may use and at most one per
    scenario: the caller runs scenarios 0, W, 2W, ... itself and W - 1 forked
    children run the rest, so the caller's peak memory includes one
    scenario's. The results, and so every output, do not depend on W. A
    process with other live threads, or a single CPU, runs them in turn. As
    in a serial run, an error in any scenario raises the lowest-index
    scenario's exception, here after every scenario has finished; a child
    that dies without a result (say, killed for memory) is such an error,
    naming its scenario and how the child ended.
    """
    cfg = config if config is not None else AuditConfig()
    n_runs = _integer("n_runs", n_runs, 1)
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique")
    results = _run_jobs(partial(_run_scenario, n_runs=n_runs, cfg=cfg), scenarios)
    return {scenario.name: result for scenario, result in zip(scenarios, results)}


def _run_jobs(function: Callable, jobs: Sequence) -> list:
    """``[function(i, job) for i, job in enumerate(jobs)]``, spread over processes.

    On Linux there are ``W = min(len(jobs), CPUs in the affinity mask)``
    processes. The caller runs jobs 0, W, 2W, ... itself; forked child p
    runs jobs p, p + W, ... and then sends each ``(index, ok, value)`` back
    over its pipe. With ``W < 2``, off Linux, or when another thread is
    alive (a fork can copy a lock that thread holds), the jobs run in turn
    here. In processes, every job runs, then the lowest-index job's
    exception is raised; a child that ends without sending a job's result
    counts as that job raising ``ChildProcessError``. An interrupt or other
    ``BaseException`` in the caller terminates the children. Every child is
    reaped before this returns or raises.
    """
    workers = 1
    if sys.platform.startswith("linux") and threading.active_count() == 1:
        workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers < 2:
        return [function(i, job) for i, job in enumerate(jobs)]
    # imported here: importing calaudit pays nothing for process machinery
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for p in range(1, workers):
            reader, writer = context.Pipe(duplex=False)
            with writer:  # the child's copy stays open: EOF once it has exited
                child = context.Process(
                    target=_send_share, args=(function, jobs, p, workers, writer)
                )
                child.start()  # flushes stdio first; the child leaves by os._exit
            children.append((child, reader))
        outcomes = {i: (ok, value) for i, ok, value in _share(function, jobs, 0, workers)}
        for p, (child, reader) in enumerate(children, start=1):
            with reader:
                while True:
                    try:
                        i, ok, value = reader.recv()
                    except EOFError:
                        break
                    outcomes[i] = (ok, value)
            child.join()
            code = child.exitcode
            how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                   else f"exited with status {code}")
            for i in range(p, len(jobs), workers):
                if i not in outcomes:
                    outcomes[i] = (False, ChildProcessError(
                        f"job {i} ({jobs[i]!r}) got no result: its process {how}"
                    ))
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, reader in children:
            child.join()
            reader.close()
    for i in range(len(jobs)):
        ok, value = outcomes[i]
        if not ok:
            raise value
    return [outcomes[i][1] for i in range(len(jobs))]


def _share(function: Callable, jobs: Sequence, first: int, step: int) -> list[tuple]:
    """``(index, ok, value)`` of jobs ``first, first + step, ...``: the result,
    or the exception the job raised."""
    out = []
    for i in range(first, len(jobs), step):
        try:
            out.append((i, True, function(i, jobs[i])))
        except Exception as exc:
            out.append((i, False, exc))
    return out


def _send_share(function: Callable, jobs: Sequence, first: int, step: int, conn) -> None:
    """A forked child's body: its share of the jobs, each outcome sent once all
    have run (a result sent earlier could block on a full pipe that the caller
    reads only after its own share)."""
    with conn:
        for outcome in _share(function, jobs, first, step):
            conn.send(outcome)


def _run_scenario(si: int, scenario, n_runs: int, cfg: AuditConfig) -> SweepResult:
    """The sweep of scenario ``si``: its population, its runs' splits and
    their sampling sweep, every draw seeded from ``(cfg.seed, stream, si, ...)``."""
    from .synthetic import apply_miscalibration, generate_population

    scored = apply_miscalibration(
        generate_population(cfg.population_size, [cfg.seed, _STREAM_POPULATION, si]),
        scenario,
    )
    n_val = int(round(cfg.validation_fraction * scored.n))
    n_test = int(round(cfg.test_fraction * scored.n))

    def _split_runs():
        for r in range(n_runs):
            rng = np.random.default_rng([cfg.seed, _STREAM_SPLIT, si, r])
            perm = rng.permutation(scored.n)
            yield AuditRun(
                run_index=r,
                validation=scored.take(np.sort(perm[:n_val])),
                test=scored.take(np.sort(perm[n_val : n_val + n_test])),
            )

    result = run_sampling_sweep(_split_runs(), cfg)
    result.provenance.update(
        scenario={"alpha": scenario.alpha, "beta": scenario.beta, "name": scenario.name},
        n_runs=n_runs,
    )
    return result


def write_sweep_csv(
    result: SweepResult, dest: str | IO[str], scenario: str | None = None
) -> None:
    """Long-form sweep table: run, ratio, metric, value (blank for missing).

    ``scenario`` prepends a constant scenario column so rows stay
    self-describing when several sweeps are concatenated.
    """
    header: tuple = ("run", "ratio", "metric", "value")
    rows = (
        [run, f"{ratio:g}", metric, _csv_value(value)]
        for run, ratio, metric, value in result.rows
    )
    if scenario is not None:
        header = ("scenario", *header)
        rows = ([scenario, *row] for row in rows)
    _write_csv(dest, header, rows)


def write_audit_json(report: AuditReport, path: str) -> None:
    _write_json(report.to_dict(), path)


def write_audit_metric_csvs(report: AuditReport, json_path: str) -> list[str]:
    """One long-form CSV per metric next to the report: metric, series, run, value."""
    from pathlib import Path

    base = Path(json_path)
    written = []
    for metric, per_series in report.series.items():
        out = base.with_name(f"{base.stem}_{metric}.csv")
        _write_csv(
            out,
            ("metric", "series", "run", "value"),
            (
                [metric, series_label, run, _csv_value(value)]
                for series_label, vals in per_series.items()
                for run, value in zip(report.runs, vals)
            ),
        )
        written.append(str(out))
    return written
