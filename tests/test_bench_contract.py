"""The benchmark's contract with calaudit, checked without a benchmark run.

The tracer patches calaudit attributes by name, so every one must exist, and
each gated workload must pass its own output checks. A refactor that drops or
renames a traced function, or changes what a workload reads, fails here at
once instead of deep inside a benchmark run.
"""

from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    return tracing


def test_tracer_installs_on_every_target_and_restores_it(tracing):
    originals = [
        (owner, attr, owner.__dict__.get(attr)) for owner, attr, _, _ in tracing.TARGETS
    ]
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a, fn in originals if fn is None]
    assert not missing, f"traced names missing from calaudit: {missing}"
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, attr, fn in originals:
            assert owner.__dict__[attr] is not fn, f"{attr} not patched"
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, f"{attr} not restored"


@pytest.mark.parametrize("name", ["SyntheticSweep", "SmallGroupAudits"])
def test_gated_workload_passes_its_checks_at_tiny_size(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    workload = getattr(workloads, name)(seed=7, size="tiny", workdir=tmp_path, digests={})
    workload.setup()
    for step in workload.steps():
        results, _ = step.check(step.run())
        assert sorted(results) == sorted(step.ops)
        for op, (_, problems) in results.items():
            assert problems == [], f"{op}: {problems}"
