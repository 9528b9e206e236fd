"""Command-line front end: metrics, audit, sweep, and synthetic subcommands."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import harness
from .calibration import DEFAULT_CLIP_EPSILON, DEFAULT_N_BINS
from .dataset import ScoreSetFormatError, _write_json, load_scoreset
from .harness import (
    AuditConfig,
    AuditRun,
    CALIBRATION_METRICS,
    DEFAULT_RATIOS,
    DEFAULT_SEED,
    DISCRIMINATION_METRICS,
    SWEEP_METRICS,
)
from .synthetic import SyntheticScenario


class UsageError(ValueError):
    """Bad command-line arguments discovered after parsing."""


def _parse_number_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        # argparse reports only this exception type's message to the user
        raise argparse.ArgumentTypeError(f"cannot parse number list {text!r}") from None


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bins",
        type=int,
        default=DEFAULT_N_BINS,
        help=f"number of calibration bins (default {DEFAULT_N_BINS}; echoed in outputs)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=DEFAULT_CLIP_EPSILON,
        help="score clipping epsilon for cross-entropy and LLRs",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.5, help="decision threshold for balanced accuracy"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"master seed; the default {DEFAULT_SEED} makes reruns byte-identical",
    )
    parser.add_argument(
        "--quantile-rule",
        default="linear",
        help="order-statistic interpolation for boxplot quartiles (numpy method name)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calaudit",
        description=(
            "Audit binary classifier scores for discrimination and calibration "
            "across demographic sub-groups, with sample-size bias diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_metrics = sub.add_parser(
        "metrics", help="all metrics for one score CSV, optionally per group"
    )
    p_metrics.add_argument("--input", required=True, help="score CSV path")
    p_metrics.add_argument("--output", required=True, help="metrics JSON path")
    p_metrics.add_argument(
        "--by-group", action="store_true", help="add one metric block per group tag"
    )
    _add_shared_flags(p_metrics)
    p_metrics.set_defaults(func=cmd_metrics)

    p_audit = sub.add_parser(
        "audit", help="per-group audit over a manifest of validation/test runs"
    )
    p_audit.add_argument(
        "--manifest",
        required=True,
        help="CSV with columns run_index,validation_csv_path,test_csv_path",
    )
    p_audit.add_argument("--output", required=True, help="report JSON path")
    p_audit.add_argument(
        "--size-matched",
        action="store_true",
        help="add the size-matched majority arm (three comparisons per metric)",
    )
    _add_shared_flags(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_sweep = sub.add_parser(
        "sweep", help="sampling-ratio sweep of calibration metrics over a manifest"
    )
    p_sweep.add_argument("--manifest", required=True, help="run manifest CSV")
    p_sweep.add_argument(
        "--output", required=True, help="long-form CSV path; summary JSON lands beside it"
    )
    p_sweep.add_argument(
        "--ratios",
        type=_parse_number_list,
        default=DEFAULT_RATIOS,
        help="comma-separated sampling ratios in (0, 1], ascending (default 0.1..1.0)",
    )
    _add_shared_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_syn = sub.add_parser(
        "synthetic",
        help="sampling sweeps on synthetic populations with controlled de-calibration",
    )
    p_syn.add_argument(
        "--alpha", required=True, type=_parse_number_list, help="comma-separated alphas"
    )
    p_syn.add_argument(
        "--beta", required=True, type=_parse_number_list, help="comma-separated betas"
    )
    p_syn.add_argument("--runs", type=int, default=100, help="random splits per scenario")
    p_syn.add_argument(
        "--n", type=int, default=100_000, help="synthetic population size"
    )
    p_syn.add_argument(
        "--ratios", type=_parse_number_list, default=DEFAULT_RATIOS, help="sampling ratios"
    )
    p_syn.add_argument(
        "--output", required=True, help="output directory (per-scenario CSVs + summary.json)"
    )
    _add_shared_flags(p_syn)
    p_syn.set_defaults(func=cmd_synthetic)

    return parser


def _config_echo(cfg: AuditConfig) -> dict:
    """The estimator settings a run used, as echoed into its JSON output."""
    return {
        "n_bins": cfg.n_bins,
        "clip_epsilon": cfg.clip_epsilon,
        "threshold": cfg.threshold,
        "seed": cfg.seed,
        "quantile_rule": cfg.quantile_rule,
    }


def _config(args: argparse.Namespace, **fields) -> AuditConfig:
    return AuditConfig(
        n_bins=args.bins,
        clip_epsilon=args.epsilon,
        threshold=args.threshold,
        seed=args.seed,
        quantile_rule=args.quantile_rule,
        **fields,
    )


def _metric_block(records: harness._Records, idx: np.ndarray) -> dict:
    names = DISCRIMINATION_METRICS + CALIBRATION_METRICS
    values, errors = harness._metric_values(names, records, idx)
    return {
        "n": int(idx.size),
        "prevalence": float(records.labels[idx].mean()),
        "metrics": {m: harness._clean(v) for m, v in values.items()},
        "errors": dict(e.split(": ", 1) for e in errors),
    }


def cmd_metrics(args: argparse.Namespace) -> None:
    cfg = _config(args)
    scoreset = load_scoreset(args.input)
    records = harness._Records(scoreset.scores, scoreset.labels, None, cfg)
    payload = {
        "command": "metrics",
        "input": str(args.input),
        "config": _config_echo(cfg),
        "overall": _metric_block(records, np.arange(scoreset.n)),
    }
    if args.by_group:
        payload["groups"] = {
            tag: _metric_block(records, np.flatnonzero(scoreset.groups == tag))
            for tag in sorted(scoreset.group_counts())
        }
    _write_json(payload, args.output)


def _load_manifest(path: str) -> list[AuditRun]:
    base = Path(path).parent
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ScoreSetFormatError(f"{path}: empty manifest")
        required = {"run_index", "validation_csv_path", "test_csv_path"}
        missing = required - set(reader.fieldnames)
        if missing:
            raise ScoreSetFormatError(
                f"{path}: manifest missing column(s): " + ", ".join(sorted(missing))
            )
        runs = []
        seen: set[int] = set()
        for line, row in enumerate(reader, start=2):
            try:
                run_index = int((row.get("run_index") or "").strip())
            except ValueError:
                raise ScoreSetFormatError(
                    f"{path} line {line}: run_index must be an integer"
                ) from None
            if run_index in seen:
                raise ScoreSetFormatError(
                    f"{path} line {line}: duplicate run_index {run_index}"
                )
            seen.add(run_index)
            validation = load_scoreset(str(base / (row["validation_csv_path"] or "").strip()))
            test = load_scoreset(str(base / (row["test_csv_path"] or "").strip()))
            runs.append(AuditRun(run_index=run_index, validation=validation, test=test))
    if not runs:
        raise ScoreSetFormatError(f"{path}: manifest has no runs")
    return runs


def cmd_audit(args: argparse.Namespace) -> None:
    cfg = _config(args)
    runs = _load_manifest(args.manifest)
    if args.size_matched:
        report = harness.run_size_matched_audit(runs, cfg)
    else:
        report = harness.run_group_audit(runs, cfg)
    harness.write_audit_json(report, args.output)
    harness.write_audit_metric_csvs(report, args.output)


def cmd_sweep(args: argparse.Namespace) -> None:
    cfg = _config(args, metrics=SWEEP_METRICS, ratios=args.ratios)
    result = harness.run_sampling_sweep(_load_manifest(args.manifest), cfg)
    harness.write_sweep_csv(result, args.output)
    _write_json(result.to_dict(), Path(args.output).with_suffix(".json"))


def cmd_synthetic(args: argparse.Namespace) -> None:
    if len(args.alpha) != len(args.beta):
        raise UsageError("--alpha and --beta must list the same number of values")
    try:
        scenarios = [SyntheticScenario(a, b) for a, b in zip(args.alpha, args.beta)]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.runs < 1:
        raise UsageError("--runs must be >= 1")
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    cfg = _config(
        args, metrics=SWEEP_METRICS, ratios=args.ratios, population_size=args.n
    )
    results = harness.run_synthetic_experiment(scenarios, args.runs, cfg)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "command": "synthetic",
        "config": {**_config_echo(cfg), "runs": args.runs, "n": cfg.population_size,
                   "ratios": list(cfg.ratios)},
        "scenarios": {},
    }
    for name, result in results.items():
        harness.write_sweep_csv(result, out_dir / f"sweep_{name}.csv", scenario=name)
        summary["scenarios"][name] = result.to_dict()
    _write_json(summary, out_dir / "summary.json")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScoreSetFormatError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
