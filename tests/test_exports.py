"""Export lists: every name a package lists in __all__ exists on it."""

import importlib

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
