"""calaudit benchmark: run one workload for a fixed time, check its outputs, print metrics.

Run from the repository root (calaudit is imported from ./src):

    python3 bench/run.py --workload synthetic_sweep --seed 101 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 101 --seconds 50 --trace 0

A run times a fresh interpreter importing calaudit and sets its inputs up,
seven times each (setup_s is the sum of the two medians), then repeats passes
of the workload until the next pass would end after ``--seconds``, with at
least three passes. Everything runs in this one process, single-threaded. A
fixed reference kernel (``reference.py``) is timed next to every set-up sample
and every pass, and the gated times are the measured seconds scaled by
``REF_S / reference seconds``, so that they follow the program and not the
speed a shared host happens to give it; the raw seconds are printed beside
them. ``--trace 1`` alternates untraced and traced
passes: the traced ones give the per-layer metrics, the difference between the
two gives the tracing overhead. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# pinned before numpy is imported, so BLAS/OpenMP start one thread each
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("synthetic_sweep", "manifest_audit", "small_group_audits")
WORKDIR = Path(".bench_work")
SETUP_REPEATS = 7
MIN_PASSES = 3
WARMUP_REFS = 3


def import_calaudit() -> None:
    """Import calaudit from ./src."""
    src = Path.cwd() / "src"
    if not (src / "calaudit" / "__init__.py").is_file():
        raise SystemExit("error: src/calaudit not found; run from the repository root")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import calaudit  # noqa: F401


def startup_seconds() -> float:
    """Seconds from starting a fresh interpreter to calaudit imported, the part of
    set-up a process pays once; one sample per call, the child is waited for."""
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import calaudit"], env=env, check=True)
    return time.perf_counter() - start


def platform_key() -> str:
    """Outputs are byte-identical for one Python, one numpy and one set of SIMD
    kernels numpy dispatches to; stored digests are kept per such platform."""
    import numpy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return "-".join((f"py{platform.python_version()}", f"numpy{numpy.__version__}",
                     platform.machine(), "+".join(simd) or "baseline"))


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform_key(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _describe(values: list[float]) -> str:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return f"min {min(values):.4f} q1 {q1:.4f} median {median:.4f} q3 {q3:.4f} n {len(values)}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Set up and measure one workload; return (result JSON object, report lines, tracer)."""
    import_calaudit()
    import reference
    import tracing
    import workloads

    spec = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))
    stored = {}
    if size == "full":
        stored = spec["digests"].get(platform_key(), {}).get(name, {}).get(str(seed), {})
    wl = workloads.WORKLOADS[name](seed, size, WORKDIR, stored)
    ref = reference.Reference()
    for _ in range(WARMUP_REFS):
        ref.seconds()
    try:
        gen_s, start_s, scales = [], [], []
        before = ref.seconds()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            gen_s.append(time.perf_counter() - start)
            start_s.append(startup_seconds())
            after = ref.seconds()
            scales.append(ref.scale(before, after))
            before = after
        setup_s = (statistics.median(s * k for s, k in zip(start_s, scales))
                   + statistics.median(g * k for g, k in zip(gen_s, scales)))
        lines = [f"# setup_raw_s start {_describe(start_s)}",
                 f"# setup_raw_s inputs {_describe(gen_s)}"]
        result, more, tracer = _measure(wl, seconds, trace, tracing, setup_s, ref, before)
        return result, lines + more, tracer
    finally:
        shutil.rmtree(wl.dir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()


def _measure(wl, seconds: float, trace: bool, tracing, setup_s: float, ref, ref_s: float):
    """Repeat passes; ``ref_s`` is the reference kernel's last time, taken just before."""
    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}  # pass seconds, by traced
    scaled = {False: [], True: []}  # the same, scaled to the reference speed
    ref_walls = [ref_s]
    peak_rss_mb = None  # after the first pass
    step_walls = defaultdict(list)
    first_digest: dict = {}
    problems: list[str] = []
    attempted = failed = 0
    bytes_per_pass = 0
    steps = wl.steps()
    begin = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        gc.collect()  # start every pass from the same collector state
        pass_start = time.perf_counter()
        outputs = []
        if traced:
            tracer.install()
        try:
            for step in steps:
                start = time.perf_counter()
                try:
                    out = tracer.root(step.name, step.run) if traced else step.run()
                    error = None
                except Exception:
                    out, error = None, traceback.format_exc(limit=3)
                outputs.append((step, out, error, time.perf_counter() - start))
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(o[3] for o in outputs))
        if peak_rss_mb is None:
            # later passes of the same work add a few MB of allocator
            # fragmentation, more on some runs than others
            peak_rss_mb = _peak_rss_mb()
        ref_walls.append(ref.seconds())
        scale = ref.scale(ref_walls[-2], ref_walls[-1])
        scaled[traced].append(walls[traced][-1] * scale)
        bytes_per_pass = 0
        for step, out, error, wall in outputs:
            if not traced:
                step_walls[step.name].append(wall * scale)
            attempted += len(step.ops)
            if error is not None:
                failed += len(step.ops)
                problems.append(f"{step.name} raised:\n{error}")
                continue
            results, nbytes = step.check(out)
            bytes_per_pass += nbytes
            for op, (digest, op_problems) in results.items():
                if first_digest.setdefault(op, digest) != digest:
                    op_problems.append(f"{op}: output differs from the first pass")
                if op in wl.stored and wl.stored[op] != digest:
                    op_problems.append(f"{op}: digest {digest} != stored {wl.stored[op]}")
                if op_problems:
                    failed += 1
                    problems.extend(op_problems)
        elapsed = time.perf_counter() - begin
        passes = len(walls[False]) + len(walls[True])
        if passes >= MIN_PASSES and elapsed + (time.perf_counter() - pass_start) > seconds:
            break

    untraced = walls[False]
    wall_s = statistics.median(scaled[False])
    lines = [f"# digest {op} {d}" for op, d in sorted(first_digest.items())]
    lines += [f"# problem {p}" for p in problems[:20]]
    lines.append(f"# pass_s scaled {_describe(scaled[False])}")
    lines.append(f"# pass_s raw {_describe(untraced)}")
    lines.append(f"# reference_s {_describe(ref_walls)} (REF_S {ref.REF_S})")
    lines.append("# passes_raw_s " + " ".join(f"{w:.4f}" for w in untraced))
    lines.append(f"# peak_rss_mb at the end {_peak_rss_mb():.1f}")
    lines.append(f"# failed_ratio {failed / attempted:.4f} ({failed} of {attempted} ops)")
    if trace:
        metrics = tracing.layer_metrics(tracer, len(walls[True]), bytes_per_pass)
        metrics["trace.wall_s"] = statistics.fmean(walls[True])
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(scaled[True]) / wall_s - 1.0)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "cells_per_s": wl.cells_per_pass / wall_s,
            "ops_per_s": wl.ops_per_pass / wall_s,
        }
        for key, (value, unit) in wl.extras(step_walls, wall_s).items():
            lines.append(f"# {wl.name} {key} {value:.6g} {unit}")
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines, tracer


def _benchmark() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_all(args) -> int:
    """Each workload in its own process (peak memory is per workload), one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(f"## {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _benchmark()
    if args.workload == "all":
        return _run_all(args)
    result, lines, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("# env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for key, m in result["metrics"].items():
        print(f"{key:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
