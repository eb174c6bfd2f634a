"""Export lists: every name a package lists in __all__ exists on it, and
every name the benchmark tracer wraps exists too; a traced benchmark run of
each workload passes. Imports: no command loads SciPy."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ffusion
from ffusion.autodiff import Tensor, ops
from test_cli import GRAPH, tiny_config


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
    assert counts["tape_records_step.full"] == 40
    assert counts["tape_records"] == 2 * 40
    assert all(span.end is not None for span in tracer.spans)


@pytest.mark.parametrize("workload", ["train_loop", "safety_campaign", "dataset_roundtrip"])
def test_traced_benchmark_run_passes(workload):
    """A one-second traced run of each benchmark workload at the tiny size
    exits 0 with every cycle correct, so the wrapped names still take the
    arguments the package passes them."""
    run = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parents[1] / "pipebench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1",
         "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0)


# Runs one command in a fresh interpreter, then prints the SciPy modules it loaded.
PROBE = """
import json, sys
from ffusion.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
sys.exit(code)
"""

# Runs generate, train and eval in one interpreter where importing SciPy fails.
BLOCKED = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from ffusion.cli import main
print(json.dumps([main([command, "--config", sys.argv[1]])
                  for command in ("generate", "train", "eval")]))
"""


def _run_python(code, *args):
    src = str(Path(ffusion.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_no_command_loads_scipy(tmp_path):
    """GELU's tanh form runs on numpy alone, so no command, the model's
    train and eval included, imports SciPy."""
    config_path = tmp_path / "run.json"
    tiny_config(tmp_path).save(config_path)
    graph = tmp_path / "arch.txt"
    graph.write_text(GRAPH, encoding="utf-8")
    commands = [
        (["generate"], 0),
        (["train"], 0),
        (["eval"], 0),
        (["inject", "--modality", "camera", "--kind", "blackout",
          "--out", str(tmp_path / "blackout")], 0),
        (["asil-check", "--graph", str(graph)], 0),
        (["report", "--set", f"paths.arch_graph={graph}"], 0),
        (["eval", "--set", f"paths.checkpoint={tmp_path / 'absent.ckpt'}"], 4),
    ]
    for (command, *flags), code in commands:
        run = _run_python(PROBE, command, "--config", str(config_path), *flags)
        assert run.returncode == code, f"{command}: {run.stderr}"
        assert json.loads(run.stdout.splitlines()[-1]) == [], f"{command} loaded SciPy"


def test_pipeline_runs_with_scipy_blocked(tmp_path):
    config_path = tmp_path / "run.json"
    tiny_config(tmp_path).save(config_path)
    run = _run_python(BLOCKED, str(config_path))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0, 0, 0], run.stderr


def test_gelu_is_the_tanh_formula_bit_for_bit():
    x = np.random.default_rng(5).standard_normal((32, 41, 16)) * 3.0
    c = math.sqrt(2.0 / math.pi)
    expected = x * (0.5 * (1.0 + np.tanh(x * (c + c * 0.044715 * (x * x)))))
    assert ops.gelu(Tensor(x)).data.tobytes() == expected.tobytes()
