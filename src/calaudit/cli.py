"""Command-line front end: metrics, audit, sweep, and synthetic subcommands."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import harness
from .dataset import ScoreSetFormatError, _csv_records, _write_json, load_scoreset
from .harness import AuditConfig, AuditRun, SWEEP_METRICS
from .synthetic import SyntheticScenario


class UsageError(ValueError):
    """Bad command-line arguments discovered after parsing."""


def _parse_number_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        # argparse reports only this exception type's message to the user
        raise argparse.ArgumentTypeError(f"cannot parse number list {text!r}") from None


# AuditConfig's field defaults are the CLI's defaults: it states none of its own
_DEFAULTS = {f.name: f.default for f in fields(AuditConfig)}

# the settings every subcommand shares: flag, AuditConfig field, type, help
_SHARED_FLAGS = (
    ("--bins", "n_bins", int,
     "number of calibration bins (default %(default)s; echoed in outputs)"),
    ("--epsilon", "clip_epsilon", float, "score clipping epsilon for cross-entropy and LLRs"),
    ("--threshold", "threshold", float, "decision threshold for balanced accuracy"),
    ("--seed", "seed", int,
     "master seed; the default %(default)s makes reruns byte-identical"),
    ("--quantile-rule", "quantile_rule", str,
     "order-statistic interpolation for boxplot quartiles (numpy method name)"),
)


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    for flag, field, kind, text in _SHARED_FLAGS:
        parser.add_argument(flag, dest=field, type=kind, default=_DEFAULTS[field], help=text)


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
        default=_DEFAULTS["ratios"],
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
        "--n", type=int, default=_DEFAULTS["population_size"], help="synthetic population size"
    )
    p_syn.add_argument(
        "--ratios", type=_parse_number_list, default=_DEFAULTS["ratios"], help="sampling ratios"
    )
    p_syn.add_argument(
        "--output", required=True, help="output directory (per-scenario CSVs + summary.json)"
    )
    _add_shared_flags(p_syn)
    p_syn.set_defaults(func=cmd_synthetic)

    return parser


def _shared(source: argparse.Namespace | AuditConfig) -> dict:
    """The shared settings, by field name, of parsed arguments or of a config:
    the keyword arguments of the one and the ``config`` echo of the other."""
    return {field: getattr(source, field) for _, field, _, _ in _SHARED_FLAGS}


def cmd_metrics(args: argparse.Namespace) -> None:
    cfg = AuditConfig(**_shared(args))
    scoreset = load_scoreset(args.input)
    payload = {
        "command": "metrics",
        "input": str(args.input),
        "config": _shared(cfg),
        **harness.evaluate_scoreset(scoreset, cfg, args.by_group),
    }
    _write_json(payload, args.output)


def _load_manifest(path: str) -> list[AuditRun]:
    base = Path(path).parent
    runs = []
    seen: set[int] = set()
    columns = ("run_index", "validation_csv_path", "test_csv_path")
    for line, row in _csv_records(path, columns, where=f"{path}: "):
        where = f"{path} line {line}: "
        try:
            run_index = int((row.get("run_index") or "").strip())
        except ValueError:
            raise ScoreSetFormatError(f"{where}run_index must be an integer") from None
        if run_index < 0:
            raise ScoreSetFormatError(f"{where}run_index must be >= 0")
        if run_index in seen:
            raise ScoreSetFormatError(f"{where}duplicate run_index {run_index}")
        seen.add(run_index)
        sets = []
        for column in columns[1:]:
            name = (row[column] or "").strip()
            if not name:
                raise ScoreSetFormatError(f"{where}{column} is empty")
            try:
                sets.append(load_scoreset(str(base / name)))
            except ScoreSetFormatError as exc:
                # the file's own error, after the manifest row and column that name it
                raise ScoreSetFormatError(f"{where}{column} {name!r}: {exc}") from None
        runs.append(AuditRun(run_index, *sets))
    if not runs:
        raise ScoreSetFormatError(f"{path}: manifest has no runs")
    return runs


def cmd_audit(args: argparse.Namespace) -> None:
    cfg = AuditConfig(**_shared(args))
    runs = _load_manifest(args.manifest)
    if args.size_matched:
        report = harness.run_size_matched_audit(runs, cfg)
    else:
        report = harness.run_group_audit(runs, cfg)
    harness.write_audit_json(report, args.output)
    harness.write_audit_metric_csvs(report, args.output)


def cmd_sweep(args: argparse.Namespace) -> None:
    summary_path = Path(args.output).with_suffix(".json")
    if summary_path == Path(args.output):
        raise UsageError(
            f"--output {args.output} is where the summary JSON goes; "
            "give the long-form CSV another suffix"
        )
    cfg = AuditConfig(**_shared(args), metrics=SWEEP_METRICS, ratios=args.ratios)
    result = harness.run_sampling_sweep(_load_manifest(args.manifest), cfg)
    harness.write_sweep_csv(result, args.output)
    _write_json(result.to_dict(), summary_path)


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
    cfg = AuditConfig(
        **_shared(args), metrics=SWEEP_METRICS, ratios=args.ratios, population_size=args.n
    )
    results = harness.run_synthetic_experiment(scenarios, args.runs, cfg)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "command": "synthetic",
        "config": {**_shared(cfg), "runs": args.runs, "n": cfg.population_size,
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
