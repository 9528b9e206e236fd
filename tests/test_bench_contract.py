"""The benchmark tracer patches calaudit attributes by name; every one must exist.

A refactor that drops or renames a traced function fails here at once instead
of deep inside a benchmark run.
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
