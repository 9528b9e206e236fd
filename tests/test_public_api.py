"""The package namespace is what the README documents, and nothing else."""

import inspect
import re
from pathlib import Path

import calaudit

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_every_export_resolves_and_is_documented():
    unresolved = [name for name in calaudit.__all__ if not hasattr(calaudit, name)]
    assert not unresolved, f"exported but missing: {unresolved}"
    undocumented = [
        name
        for name in calaudit.__all__
        if not re.search(rf"`(calaudit\.)?{re.escape(name)}\b", README)
    ]
    assert not undocumented, f"exported but not in README.md: {undocumented}"


def test_namespace_holds_only_the_exports():
    public = {
        name
        for name, value in vars(calaudit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(calaudit.__all__) - {"__version__"}
