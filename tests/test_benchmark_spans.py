"""The package functions the benchmark's traced pass wraps must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_benchmark(monkeypatch):
    """perfbench/run.py as a module of its own; the path entries it adds are undone."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_resolves(monkeypatch):
    """The benchmark's gate runs untraced, so a renamed function would break
    only the traced pass; here every (module, attribute) of SPANNED resolves
    to a callable, looked up as the traced pass looks it up."""
    run = _load_benchmark(monkeypatch)
    assert run.hyperring_lab is not None
    for owner, attr, label, _ in run.SPANNED:
        module, _, cls = owner.partition(".")
        target = importlib.import_module("hyperring_lab." + module)
        if cls:
            target = getattr(target, cls, None)
            assert target is not None, label
        assert callable(getattr(target, attr, None)), label
