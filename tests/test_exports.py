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


def test_benchmark_tracer_spans_one_training_epoch(monkeypatch):
    """`backward` runs part of each step on a worker thread, while the tracer
    keeps one span stack: every traced call must still run on the calling
    thread, or a span closes out of order and the traced benchmark fails."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "pipebench"))
    from ffusion.autodiff import Rng
    from ffusion.model import FusionNetwork, ModelConfig, TrainConfig, train
    from ffusion.scene import synthesize_sample

    root = Rng(11)
    samples = [synthesize_sample(f"{i:06d}", root.derive_seed(f"sample/{i:06d}"))
               for i in range(4)]
    network = FusionNetwork(config=ModelConfig(), seed=0)
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        tracer.start_cycle()
        train(network, samples, TrainConfig(epochs=1, batch_size=2, p_drop=0.0))
        counts = tracer.end_cycle()  # raises if a step's record count varied
    finally:
        tracer.uninstall()
    assert counts["autodiff.backward"] == 2  # one span per step
    assert counts["tape_records_step.full"] == 130
    assert counts["tape_records"] == 2 * 130
    assert all(span.end is not None for span in tracer.spans)
