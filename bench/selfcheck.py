"""Self-check of the benchmark at tiny sizes; exits non-zero on any failure.

    python3 bench/selfcheck.py      # from the repository root, takes a few seconds

For every workload it makes one untraced and one traced run and confirms that
the result object has the contract's keys, that every end-to-end or per-layer
metric named in BENCHMARK.json is emitted with its unit (and nothing else), that
no operation failed, that every span's self time is non-negative, and that the
per-layer self times add up to the traced wall time.
"""

from __future__ import annotations

import math
import re
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SELF_LAYERS = ("dataset", "synthetic", "calibration", "discrimination",
               "platt", "stats", "harness", "cli", "bench")


def check(name: str, trace: bool, declared: list[dict]) -> list[str]:
    result, _, tracer = run.run_workload(name, seed=7, seconds=0.5, trace=trace, size="tiny")
    where = f"{name} trace={int(trace)}"
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(want))}")
    for key, m in got.items():
        if m.get("unit") != want.get(key) or not math.isfinite(m.get("value", math.nan)):
            problems.append(f"{where}: {key} = {m}")
    if trace:
        self_s = tracer.table()["self_s"]
        if self_s.min() < 0:
            problems.append(f"{where}: negative self time {self_s.min()}")
        total = sum(got[f"{lay}.self_s"]["value"] for lay in SELF_LAYERS)
        wall = got["trace.wall_s"]["value"]
        if not abs(total - wall) <= 1e-3 + 0.01 * wall:
            problems.append(f"{where}: self times sum to {total} s, traced wall {wall} s")
    return problems


def main() -> int:
    bench = run._benchmark()
    problems = []
    for group in ("end_to_end", "per_layer"):
        for m in bench[group]:
            if not (NAME.match(m["name"]) and UNIT.match(m["unit"])):
                problems.append(f"BENCHMARK.json {group}: bad name or unit {m}")
    for name in run.WORKLOAD_NAMES:
        problems += check(name, False, bench["end_to_end"])
        problems += check(name, True, bench["per_layer"])
    for p in problems:
        print(p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
