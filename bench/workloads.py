"""The benchmark's three workloads: inputs made from a seed, timed steps, output checks.

Each workload writes or builds its inputs in ``setup`` (numpy and the stdlib
``csv`` module only; calaudit receives nothing but the generated files or
arrays), and ``steps`` lists the timed calls of one pass. A step's ``check``
runs after the timing: it hashes the step's outputs per operation and compares
a few values with an independent numpy computation from the generated inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import statistics
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from calaudit import cli, harness
from calaudit.dataset import ScoreSet

N_BINS = 15
N_RATIOS = len(harness.DEFAULT_RATIOS)
N_SWEEP_METRICS = len(harness.SWEEP_METRICS)

SIZES = {
    "full": {
        "synthetic_sweep": {"n": 100_000, "runs": 10},
        "manifest_audit": {"big_rows": 200_000, "runs": 25, "val": 4000, "test": 20_000},
        "small_group_audits": {
            "audits": 8, "runs": 25, "val": 2000, "majority": 1000, "minority": 50,
        },
    },
    "tiny": {
        "synthetic_sweep": {"n": 2000, "runs": 3},
        "manifest_audit": {"big_rows": 2000, "runs": 3, "val": 400, "test": 1000},
        "small_group_audits": {
            "audits": 2, "runs": 5, "val": 200, "majority": 100, "minority": 20,
        },
    },
}


class Step(NamedTuple):
    """One timed call; ``check(output)`` returns ``({op: (digest, problems)}, bytes)``."""

    name: str
    ops: tuple[str, ...]
    run: Callable[[], object]
    check: Callable[[object], tuple[dict, int]]


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"calaudit {argv[0]} exited with code {code}")


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _ref_brier(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean((scores - labels) ** 2))


def _ref_ece(scores: np.ndarray, labels: np.ndarray) -> float:
    # equal-width, right-closed bins (bin 0 holds 0), confidence = mean score
    bins = np.searchsorted(np.linspace(0.0, 1.0, N_BINS + 1)[1:-1], scores, side="left")
    gap = np.bincount(bins, weights=labels - scores, minlength=N_BINS)
    return float(np.abs(gap).sum() / scores.size)


def _close(name: str, got, want: float, problems: list[str], tol: float = 1e-9) -> None:
    if got is None or not abs(got - want) <= tol:
        problems.append(f"{name}: got {got}, independent value {want}")


def _scores(rng: np.random.Generator, n: int, slope: float, offset: float):
    """Labels ~ Bernoulli(p), p ~ U(0, 1); scores are a logistic distortion of p,
    rounded to 4 decimals as score exports usually are, so ties occur."""
    p = rng.random(n)
    labels = (rng.random(n) < p).astype(np.int64)
    z = slope * np.log(np.clip(p, 1e-9, 1.0) / np.clip(1.0 - p, 1e-9, 1.0)) + offset
    scores = np.round(1.0 / (1.0 + np.exp(-z)), 4)
    return scores, labels


def _grouped(rng, n: int, tags: tuple[str, ...], shares: tuple[float, ...], calib):
    """Records spread over ``tags`` by ``shares``; ``calib[tag]`` is (slope, offset)."""
    groups = np.array(tags)[rng.choice(len(tags), size=n, p=shares)]
    scores = np.empty(n)
    labels = np.empty(n, dtype=np.int64)
    for tag in tags:
        mask = groups == tag
        scores[mask], labels[mask] = _scores(rng, int(mask.sum()), *calib[tag])
    return scores, labels, groups


def _write_csv(path: Path, scores, labels, groups) -> None:
    n = scores.size
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "patient_id", "score", "label", "group"])
        writer.writerows(
            zip(
                (f"s{i}" for i in range(n)),
                (f"p{i // 2}" for i in range(n)),
                map(str, scores.tolist()),
                labels.tolist(),
                groups.tolist(),
            )
        )


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: Path, digests: dict) -> None:
        self.seed = seed
        self.p = SIZES[size][self.name]
        self.dir = workdir / self.name
        self.stored = digests
        self.rows_per_pass = 0

    def rng(self, *keys: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *keys])

    def fresh_dir(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "out").mkdir(parents=True)

    def extras(self, step_walls: dict, wall_s: float) -> dict:
        """Workload-specific end-to-end figures: name -> (value, unit)."""
        return {}


class SyntheticSweep(Workload):
    """``calaudit synthetic`` on the C1-C3 scenario pair; the per-cell kernel does the work."""

    name = "synthetic_sweep"
    scenarios = ("alpha1_beta1", "alpha5_beta5")
    calibrated = "alpha1_beta1"

    def setup(self) -> None:
        self.fresh_dir()

    @property
    def ops_per_pass(self) -> int:
        return len(self.scenarios)

    @property
    def cells_per_pass(self) -> int:
        return len(self.scenarios) * self.p["runs"] * N_RATIOS

    def steps(self) -> list[Step]:
        argv = [
            "synthetic", "--alpha", "1,5", "--beta", "1,5",
            "--n", str(self.p["n"]), "--runs", str(self.p["runs"]),
            "--seed", str(self.seed), "--output", str(self.dir / "out"),
        ]
        return [Step("synthetic", self.scenarios, lambda: _cli(argv), self._check)]

    def _check(self, _) -> tuple[dict, int]:
        out = self.dir / "out"
        summary_bytes = (out / "summary.json").read_bytes()
        summary = json.loads(summary_bytes)
        total = len(summary_bytes)
        results = {}
        for name in self.scenarios:
            problems: list[str] = []
            csv_bytes = (out / f"sweep_{name}.csv").read_bytes()
            total += len(csv_bytes)
            block = summary["scenarios"].get(name)
            rows = list(csv.DictReader(csv_bytes.decode().splitlines()))
            want = self.p["runs"] * N_RATIOS * N_SWEEP_METRICS
            if len(rows) != want:
                problems.append(f"{name}: {len(rows)} sweep rows, expected {want}")
            if any(r["value"] == "" for r in rows):
                problems.append(f"{name}: missing sweep values")
            if block is None or block["runs"] != list(range(self.p["runs"])):
                problems.append(f"{name}: summary lists the wrong runs")
            elif name == self.calibrated:
                # the paper's effect: on calibrated scores binned ECE is pure
                # estimator bias, larger on the smaller sample
                ece = block["summaries"]["ece"]
                if not ece["0.1"]["median"] > ece["1"]["median"]:
                    problems.append(f"{name}: median ECE at ratio 0.1 not above ratio 1")
            block_bytes = json.dumps(block, sort_keys=True).encode()
            results[name] = (_sha(csv_bytes, block_bytes), problems)
        return results, total


class ManifestAudit(Workload):
    """``metrics --by-group`` on a big CSV, then ``audit --size-matched`` and ``sweep``
    over a 25-run manifest: CSV ingest plus every metric at large n."""

    name = "manifest_audit"
    big_tags = ("north", "south", "east", "west")
    big_shares = (0.4, 0.3, 0.2, 0.1)
    big_calib = {"north": (1.0, 0.0), "south": (0.8, 0.2), "east": (1.2, -0.1),
                 "west": (0.6, 0.4)}
    run_tags = ("A", "B")
    run_shares = (0.9, 0.1)
    run_calib = {"A": (1.0, 0.0), "B": (0.7, 0.3)}

    ops_per_pass = 3

    @property
    def cells_per_pass(self) -> int:
        runs = self.p["runs"]
        return (1 + len(self.big_tags)) + 3 * runs + N_RATIOS * runs

    def setup(self) -> None:
        self.fresh_dir()
        p = self.p
        rng = self.rng(1)
        self.big = _grouped(rng, p["big_rows"], self.big_tags, self.big_shares, self.big_calib)
        _write_csv(self.dir / "big.csv", *self.big)
        self.tests = []
        lines = ["run_index,validation_csv_path,test_csv_path"]
        for r in range(p["runs"]):
            rng = self.rng(2, r)
            val = _grouped(rng, p["val"], self.run_tags, self.run_shares, self.run_calib)
            test = _grouped(rng, p["test"], self.run_tags, self.run_shares, self.run_calib)
            _write_csv(self.dir / f"val{r}.csv", *val)
            _write_csv(self.dir / f"test{r}.csv", *test)
            self.tests.append(test)
            lines.append(f"{r},val{r}.csv,test{r}.csv")
        (self.dir / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.rows_per_pass = p["big_rows"] + 2 * p["runs"] * (p["val"] + p["test"])

    def steps(self) -> list[Step]:
        d, out, seed = self.dir, self.dir / "out", ["--seed", str(self.seed)]
        manifest = str(d / "manifest.csv")
        metrics = ["metrics", "--input", str(d / "big.csv"),
                   "--output", str(out / "metrics.json"), "--by-group", *seed]
        audit = ["audit", "--manifest", manifest, "--output", str(out / "report.json"),
                 "--size-matched", *seed]
        sweep = ["sweep", "--manifest", manifest, "--output", str(out / "sweep.csv"), *seed]
        return [
            Step("metrics", ("metrics",), lambda: _cli(metrics), self._check_metrics),
            Step("audit", ("audit",), lambda: _cli(audit), self._check_audit),
            Step("sweep", ("sweep",), lambda: _cli(sweep), self._check_sweep),
        ]

    def _check_metrics(self, _) -> tuple[dict, int]:
        raw = (self.dir / "out" / "metrics.json").read_bytes()
        payload = json.loads(raw)
        scores, labels, groups = self.big
        problems: list[str] = []
        blocks = [("overall", payload["overall"], np.ones(scores.size, dtype=bool))]
        blocks += [(t, payload["groups"].get(t), groups == t) for t in self.big_tags]
        for name, block, mask in blocks:
            if block is None:
                problems.append(f"metrics: no block for {name}")
                continue
            s, y = scores[mask], labels[mask]
            if block["n"] != s.size:
                problems.append(f"metrics {name}: n {block['n']} != {s.size}")
            _close(f"metrics {name} prevalence", block["prevalence"], float(y.mean()), problems)
            _close(f"metrics {name} brier", block["metrics"]["brier"], _ref_brier(s, y), problems)
            _close(f"metrics {name} ece", block["metrics"]["ece"], _ref_ece(s, y), problems)
        return {"metrics": (_sha(raw), problems)}, len(raw)

    def _check_audit(self, _) -> tuple[dict, int]:
        out = self.dir / "out"
        files = [out / "report.json"] + sorted(out.glob("report_*.csv"))
        blobs = [f.read_bytes() for f in files]
        report = json.loads(blobs[0])
        problems: list[str] = []
        if len(files) != 1 + len(harness.ALL_METRICS):
            problems.append(f"audit: {len(files) - 1} per-metric CSVs")
        for metric in harness.ALL_METRICS:
            for arm in (harness.ARM_NAIVE, harness.ARM_SIZE_MATCHED, harness.ARM_SIZE_EFFECT):
                if report["tests"][metric].get(arm) is None:
                    problems.append(f"audit: no {arm} test for {metric}")
        for series, tag in (("majority", "A"), ("minority", "B")):
            got = report["series"]["brier"][series]
            for r, (s, y, g) in enumerate(self.tests):
                mask = g == tag
                _close(f"audit run {r} {series} brier", got[r], _ref_brier(s[mask], y[mask]),
                       problems)
        return {"audit": (_sha(*(f.name.encode() + b for f, b in zip(files, blobs))),
                          problems)}, sum(map(len, blobs))

    def _check_sweep(self, _) -> tuple[dict, int]:
        out = self.dir / "out"
        raw_csv = (out / "sweep.csv").read_bytes()
        raw_json = (out / "sweep.json").read_bytes()
        rows = list(csv.DictReader(raw_csv.decode().splitlines()))
        problems: list[str] = []
        want = self.p["runs"] * N_RATIOS * N_SWEEP_METRICS
        if len(rows) != want or any(r["value"] == "" for r in rows):
            problems.append(f"sweep: {len(rows)} rows (expected {want}) or missing values")
        # at ratio 1 the subsample is the whole test set
        full = {int(r["run"]): float(r["value"]) for r in rows
                if r["ratio"] == "1" and r["metric"] == "ece"}
        for r, (s, y, _g) in enumerate(self.tests):
            _close(f"sweep run {r} ece at ratio 1", full.get(r), _ref_ece(s, y), problems)
        return {"sweep": (_sha(raw_csv, raw_json), problems)}, len(raw_csv) + len(raw_json)

    def extras(self, step_walls: dict, wall_s: float) -> dict:
        out = {f"cmd_{k}_s": (statistics.median(v), "s") for k, v in step_walls.items()}
        out["ingest_rows_per_s"] = (self.rows_per_pass / wall_s, "1/s")
        return out


class SmallGroupAudits(Workload):
    """In-process size-matched audits shaped like C4: small sets, fixed per-call costs."""

    name = "small_group_audits"
    tags = ("A", "B")

    @property
    def ops_per_pass(self) -> int:
        return self.p["audits"]

    @property
    def cells_per_pass(self) -> int:
        return self.p["audits"] * self.p["runs"] * 3

    def setup(self) -> None:
        p = self.p
        calib = (1.0, 0.0)  # both groups equally calibrated: any naive gap is spurious
        self.inputs = []
        for k in range(p["audits"]):
            runs = []
            for r in range(p["runs"]):
                rng = self.rng(3, k, r)
                val_scores, val_labels = _scores(rng, p["val"], *calib)
                val_groups = np.array(self.tags)[(rng.random(p["val"]) < 0.05).astype(int)]
                n_test = p["majority"] + p["minority"]
                test_scores, test_labels = _scores(rng, n_test, *calib)
                minority = np.r_[np.zeros(p["majority"], int), np.ones(p["minority"], int)]
                test_groups = np.array(self.tags)[rng.permutation(minority)]
                ids = np.array([f"s{k}_{r}_{i}" for i in range(n_test)])
                runs.append((val_scores, val_labels, val_groups,
                             test_scores, test_labels, test_groups, ids))
            self.inputs.append(runs)

    def _audit(self, k: int):
        runs = [
            harness.AuditRun(
                run_index=r,
                validation=ScoreSet(scores=vs, labels=vl, groups=vg),
                test=ScoreSet(scores=ts, labels=tl, groups=tg, sample_ids=ids),
            )
            for r, (vs, vl, vg, ts, tl, tg, ids) in enumerate(self.inputs[k])
        ]
        return harness.run_size_matched_audit(runs, harness.AuditConfig(seed=self.seed))

    def steps(self) -> list[Step]:
        return [
            Step(f"audit{k}", (f"audit{k}",), (lambda k=k: self._audit(k)),
                 (lambda report, k=k: self._check(k, report)))
            for k in range(self.p["audits"])
        ]

    def _check(self, k: int, report) -> tuple[dict, int]:
        raw = json.dumps(report.to_dict(), sort_keys=True, allow_nan=False).encode()
        problems: list[str] = []
        n_runs = self.p["runs"]
        for metric, per in report.series.items():
            for series, vals in per.items():
                if len(vals) != n_runs or any(math.isnan(v) for v in vals):
                    problems.append(f"audit{k} {metric} {series}: missing values")
        for series, tag in (("majority", "A"), ("minority", "B")):
            for r, (_vs, _vl, _vg, ts, tl, tg, _ids) in enumerate(self.inputs[k]):
                mask = tg == tag
                _close(f"audit{k} run {r} {series} brier", report.series["brier"][series][r],
                       _ref_brier(ts[mask], tl[mask]), problems)
        return {f"audit{k}": (_sha(raw), problems)}, 0  # nothing is written to disk

    def extras(self, step_walls: dict, wall_s: float) -> dict:
        return {"audits_per_s": (self.ops_per_pass / wall_s, "1/s")}


WORKLOADS = {w.name: w for w in (SyntheticSweep, ManifestAudit, SmallGroupAudits)}
