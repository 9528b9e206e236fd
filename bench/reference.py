"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the same pass of a workload can take 50% longer from one
minute to the next, because other tenants take cache, memory bandwidth and
turbo headroom. The benchmark times this kernel next to every pass and every
set-up sample, and scales the measured seconds by ``REF_S / reference seconds``:
the gated timings are seconds on a host that runs this kernel in ``REF_S``.
A change to calaudit moves the pass and leaves this kernel alone, so the scaled
figure moves with the program and not with the neighbours.

The kernel does no calaudit work. Its mix follows a profile of the two gated
workloads: mostly many numpy calls on arrays of 50 to 2000 elements, whose
cost is per-call overhead (stable argsort, log/exp, reductions, ``isin``,
``array_split``, ``astype``, as in Platt fits, binning and the Wilcoxon tests
of small audits), a few calls on 50k-element arrays (fancy-index ``take``,
argsort, ``searchsorted``, ``bincount``, as in the sweep's subsamples) and some
Python-level record handling.
"""

from __future__ import annotations

import gc
import time

import numpy as np


class Reference:
    # the unit of the scaled times, near the kernel's median time on the 2-vCPU
    # x86_64 host the bounds were set on; changing it rescales every gated time alike
    REF_S = 0.150

    def __init__(self) -> None:
        rng = np.random.default_rng(20230509)
        self.small = [np.round(rng.random(n), 4) for n in (50, 200, 1000, 2000)]
        self.small_y = [(rng.random(a.size) < a).astype(np.int64) for a in self.small]
        self.large = np.round(rng.random(100_000), 4)
        self.labels = (rng.random(100_000) < self.large).astype(np.int64)
        self.idx = np.sort(rng.choice(100_000, size=50_000, replace=False))
        self.groups = np.array(["A", "B"])[(rng.random(2000) < 0.05).astype(int)]
        self.edges = np.linspace(0.0, 1.0, 16)[1:-1]

    def _work(self) -> float:
        acc = 0.0
        for _ in range(120):
            for a, y in zip(self.small, self.small_y):
                o = np.argsort(a, kind="stable")
                z = np.clip(a, 1e-6, 1 - 1e-6)
                z = np.log(z) - np.log1p(-z)
                p = 1.0 / (1.0 + np.exp(-(0.9 * z + 0.1)))
                acc += float(np.sum(y * np.log(p) + (1 - y) * np.log1p(-p)))
                acc += float(np.mean(np.diff(a[o]))) + int(np.isin(y, [1]).sum())
                acc += len(np.array_split(o, 4)) + float(a.astype(np.float32).mean())
                acc += np.r_[a[:3], y[:3]].size
            acc += np.unique(self.groups).size
        for _ in range(5):
            s = self.large.take(self.idx)
            y = self.labels[self.idx]
            o = np.argsort(s, kind="stable")
            b = np.searchsorted(self.edges, s, side="left")
            gap = np.bincount(b, weights=y - s, minlength=15)
            acc += float(np.abs(gap).sum() + np.cumsum(y[o])[-1])
        seen: dict[str, int] = {}
        for i, sid in enumerate([f"s{i}" for i in range(10_000)]):
            seen[sid[-1]] = seen.get(sid[-1], 0) + i
        return acc + len(seen)

    def scale(self, before: float, after: float) -> float:
        """Factor from seconds measured between two runs of the kernel, which took
        ``before`` and ``after`` seconds, to seconds at the reference speed."""
        return self.REF_S / ((before + after) / 2)

    def seconds(self) -> float:
        """Seconds of one run of the kernel, from the same collector state each time."""
        gc.collect()
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start
