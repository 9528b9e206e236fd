"""In-memory spans around the calls into each calaudit layer, installed from outside.

The tracer replaces a function at the module (or class) attribute its caller
looks it up by, e.g. ``harness.subsample_indices`` or ``ScoreSet.take``, with a
wrapper that records a span ``(name, start, end, parent, op)``. ``name`` is
``<layer>.<what>``; ``op`` identifies the benchmark operation the span belongs
to. Nothing inside ``src/`` changes, and ``uninstall`` restores every attribute,
so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter

import numpy as np

from calaudit import calibration, cli, dataset, discrimination, harness, platt, synthetic

LAYERS = (
    "dataset", "synthetic", "calibration", "discrimination",
    "platt", "stats", "harness", "cli",
)
ROOT = "bench.op"


def _count_rows(key):
    def hook(tracer, parent, args, kwargs, result):
        tracer.counts[key] += result.n
    return hook


def _count_fit(tracer, parent, args, kwargs, result):
    tracer.counts["platt.fit_iterations"] += result.iterations
    tracer.counts["platt.fit_nonconverged"] += not result.converged


def _count_exact(tracer, parent, args, kwargs, result):
    tracer.counts["stats.wilcoxon_exact_calls"] += result.method == "exact"


def _nan_count(values) -> int:
    return sum(1 for v in values if math.isnan(v))


def _count_cell(tracer, parent, args, kwargs, result):
    # cells evaluated anywhere; NaNs are counted where they are written out,
    # which for the metrics command is this call itself
    tracer.counts["harness.cells"] += 1
    if parent.startswith("cli."):
        tracer.counts["harness.missing_cells"] += _nan_count(result[0].values())


def _count_missing_rows(tracer, parent, args, kwargs, result):
    tracer.counts["harness.missing_cells"] += _nan_count(row[3] for row in result.rows)


def _count_missing_series(tracer, parent, args, kwargs, result):
    tracer.counts["harness.missing_cells"] += sum(
        _nan_count(vals) for per in result.series.values() for vals in per.values()
    )


def _bin_name(args, kwargs) -> str:
    scheme = args[1] if len(args) > 1 else kwargs.get("scheme", calibration.EQUAL_WIDTH)
    return f"calibration.bin_{scheme}"


# (owner, attribute, span name or namer(args, kwargs), hook(tracer, parent, args, kwargs, result))
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "cmd_metrics", "cli.cmd_metrics", None),
    (cli, "cmd_audit", "cli.cmd_audit", None),
    (cli, "cmd_sweep", "cli.cmd_sweep", None),
    (cli, "cmd_synthetic", "cli.cmd_synthetic", None),
    # the output writers live in harness but only the CLI calls them
    (cli, "_write_json", "cli.write", None),
    (harness, "write_sweep_csv", "cli.write", None),
    (harness, "write_audit_json", "cli.write", None),
    (harness, "write_audit_metric_csvs", "cli.write", None),
    (cli, "load_scoreset", "dataset.load", _count_rows("dataset.load_rows")),
    (dataset.ScoreSet, "__init__", "dataset.scoreset_new", None),
    (dataset.ScoreSet, "take", "dataset.take", _count_rows("dataset.take_rows")),
    (harness, "subsample_indices", "dataset.subsample", None),
    (harness, "_match_group_indices", "dataset.match", None),
    (synthetic, "generate_population", "synthetic.population", None),
    (synthetic, "apply_miscalibration", "synthetic.miscalibration", None),
    (calibration, "bin_scores", _bin_name, None),
    (calibration, "ece", "calibration.ece", None),
    (calibration, "mce", "calibration.mce", None),
    (calibration, "ada_ece", "calibration.ada_ece", None),
    (calibration, "cross_entropy", "calibration.psr", None),
    (calibration, "brier", "calibration.psr", None),
    (platt, "cross_entropy", "calibration.psr", None),
    (platt, "brier", "calibration.psr", None),
    (discrimination, "roc_auc", "discrimination.roc_auc", None),
    (discrimination, "pr_auc", "discrimination.pr_auc", None),
    (discrimination, "pr_auc_gain", "discrimination.pr_auc_gain", None),
    (discrimination, "balanced_accuracy", "discrimination.balanced_accuracy", None),
    (harness, "to_llr", "platt.llr", None),
    (harness, "fit_platt", "platt.fit", _count_fit),
    (harness, "apply_platt", "platt.apply", None),
    (harness, "decompose_psr", "platt.decompose", None),
    (harness, "wilcoxon_signed_rank", "stats.wilcoxon", _count_exact),
    (harness, "summarize", "stats.summarize", None),
    (harness, "run_group_audit", "harness.run_group_audit", _count_missing_series),
    (harness, "run_size_matched_audit", "harness.run_size_matched_audit",
     _count_missing_series),
    (harness, "run_sampling_sweep", "harness.run_sampling_sweep", _count_missing_rows),
    (harness, "run_synthetic_experiment", "harness.run_synthetic_experiment", None),
    (harness, "_metric_values", "harness.metric_values", _count_cell),
    (harness, "_fit_run_calibrator", "harness.fit_run_calibrator", None),
)


class Tracer:
    """Spans kept in memory: ``spans[i] = [name, start_ns, end_ns, parent, op]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ops: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(namer(args, kwargs) if namer else name, hook, fn, args, kwargs)

        return wrapper

    def _call(self, name, hook, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, len(self.ops) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[name + ".raised"] += 1
            raise
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if hook is not None:
            hook(self, self.spans[parent][0] if parent >= 0 else "", args, kwargs, result)
        return result

    def root(self, label: str, fn):
        """Run one benchmark operation under a root span; every span inside shares its op."""
        self.ops.append(label)
        return self._call(ROOT, None, fn, (), {})

    def table(self) -> dict:
        """Per span name: calls and inclusive seconds; per layer: self seconds, and the
        calls and seconds of its outermost spans; and every span's self seconds."""
        if not self.spans:
            return {"names": {}, "layers": {}, "self_s": np.zeros(0)}
        names = [s[0] for s in self.spans]
        start = np.array([s[1] for s in self.spans], dtype=np.int64)
        end = np.array([s[2] for s in self.spans], dtype=np.int64)
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - child_ns.astype(np.int64)
        layer = [n.split(".", 1)[0] for n in names]
        per_name: dict = {}
        per_layer: dict = {}
        for i, n in enumerate(names):
            row = per_name.setdefault(n, [0, 0])
            row[0] += 1
            row[1] += dur[i]
            lay = per_layer.setdefault(layer[i], [0, 0, 0])
            lay[0] += self_ns[i]
            if parent[i] < 0 or layer[parent[i]] != layer[i]:
                lay[1] += 1
                lay[2] += dur[i]
        return {
            "names": {n: (c, d / 1e9) for n, (c, d) in per_name.items()},
            "layers": {l: (s / 1e9, c, d / 1e9) for l, (s, c, d) in per_layer.items()},
            "self_s": self_ns / 1e9,
        }


def layer_metrics(tracer: Tracer, passes: int, bytes_written: float) -> dict:
    """Per-layer metrics per traced pass, from the spans and counters of ``passes`` passes."""
    t = tracer.table()
    names, layers, counts = t["names"], t["layers"], tracer.counts

    def calls(n):
        return names.get(n, (0, 0.0))[0] / passes

    def secs(n):
        return names.get(n, (0, 0.0))[1] / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict = {}
    m["dataset.load_calls"] = calls("dataset.load")
    m["dataset.load_rows"] = counts["dataset.load_rows"] / passes
    m["dataset.load_s"] = secs("dataset.load")
    m["dataset.load_us_per_row"] = 1e6 * ratio(m["dataset.load_s"], m["dataset.load_rows"])
    m["dataset.take_calls"] = calls("dataset.take")
    m["dataset.take_rows"] = counts["dataset.take_rows"] / passes
    m["dataset.take_s"] = secs("dataset.take")
    m["dataset.scoreset_new"] = calls("dataset.scoreset_new")
    m["dataset.scoreset_new_s"] = secs("dataset.scoreset_new")
    m["dataset.subsample_calls"] = calls("dataset.subsample")
    m["dataset.subsample_s"] = secs("dataset.subsample")
    m["dataset.subsample_accept_ratio"] = ratio(
        calls("dataset.subsample") - counts["dataset.subsample.raised"] / passes,
        calls("dataset.subsample"),
    )
    m["dataset.match_s"] = secs("dataset.match")
    for what in ("bin_equal_width", "bin_equal_count", "ece", "mce", "ada_ece", "psr"):
        m[f"calibration.{what}_calls"] = calls(f"calibration.{what}")
        m[f"calibration.{what}_s"] = secs(f"calibration.{what}")
    disc = layers.get("discrimination", (0.0, 0, 0.0))
    m["discrimination.calls"] = disc[1] / passes
    m["discrimination.s"] = disc[2] / passes
    m["platt.fit_calls"] = calls("platt.fit")
    m["platt.fit_s"] = secs("platt.fit")
    m["platt.fit_iterations"] = counts["platt.fit_iterations"] / passes
    m["platt.fit_nonconverged"] = counts["platt.fit_nonconverged"] / passes
    m["platt.apply_s"] = secs("platt.apply")
    m["platt.decompose_calls"] = calls("platt.decompose")
    m["platt.decompose_s"] = secs("platt.decompose")
    m["synthetic.population_s"] = secs("synthetic.population")
    m["synthetic.miscalibration_s"] = secs("synthetic.miscalibration")
    m["stats.wilcoxon_calls"] = calls("stats.wilcoxon")
    m["stats.wilcoxon_exact_calls"] = counts["stats.wilcoxon_exact_calls"] / passes
    m["stats.wilcoxon_s"] = secs("stats.wilcoxon")
    m["stats.summarize_s"] = secs("stats.summarize")
    cells = counts["harness.cells"] / passes
    m["harness.cells"] = cells
    m["harness.missing_cells"] = counts["harness.missing_cells"] / passes
    harness_outer = layers.get("harness", (0.0, 0, 0.0))[2] / passes
    m["harness.cell_ms"] = 1e3 * ratio(harness_outer, cells)
    m["cli.write_s"] = secs("cli.write")
    m["cli.bytes_written"] = bytes_written
    for lay in LAYERS + ("bench",):
        m[f"{lay}.self_s"] = layers.get(lay, (0.0, 0, 0.0))[0] / passes
    m["trace.spans"] = len(tracer.spans) / passes
    return m
