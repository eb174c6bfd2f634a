"""Export lists: every name a package lists in __all__ exists on it, and
every name the benchmark tracer wraps exists too."""

import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize("package", [
    "ffusion", "ffusion.autodiff", "ffusion.geometry", "ffusion.model",
    "ffusion.safety", "ffusion.scene",
])
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names undefined {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    """The traced benchmark run rebinds named functions and methods of the
    package; a deleted or renamed one fails here rather than in the benchmark."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "pipebench"))
    import ffusion.model

    original = ffusion.model.prepare_features
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        assert ffusion.model.prepare_features is not original
    finally:
        tracer.uninstall()
    assert ffusion.model.prepare_features is original
