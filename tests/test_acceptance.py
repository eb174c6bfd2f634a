"""Shipping gate: every release criterion asserted at its stated tolerance.

Each test prints one `criterion N (...): PASS/FAIL` line so the verbose
suite output doubles as the acceptance report. Tolerances are pinned in
the assertions and never loosened at runtime.
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ffusion.autodiff import (
    Rng,
    Tape,
    Tensor,
    backward,
    grad_check,
    grad_check_components,
    ops,
)
from ffusion.config import DatasetConfig, Paths, RunConfig
from ffusion.errors import FusionError
from ffusion.geometry import project_point_cloud
from ffusion.model import (
    AvailabilityMask,
    FusionNetwork,
    ModelConfig,
    TrainConfig,
    group_by_availability,
    prepare_samples,
    stack_features,
    train,
)
from ffusion.safety import (
    ASIL_LEVELS,
    ASIL_RANK,
    FAIL_SILENT,
    Campaign,
    FaultSpec,
    Scenario,
    fail_operational_eval,
    inject_fault,
    inject_faults,
    probe_modality,
    rank_sum_valid,
)
from ffusion.scene import (
    generate_scene,
    render_depth,
    simulate_depth_scan,
)
from ffusion.scene.dataset import build_dataset, load_dataset

MODS = ("camera", "depth", "text")


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status} [{detail}]", flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Default dataset built through the real pipeline: 512/64/64 samples."""
    cfg = DatasetConfig()
    root = tmp_path_factory.mktemp("acceptance_data")
    build_dataset(root, cfg.count, cfg.seed, cfg.ratios)
    splits = load_dataset(root)
    return splits["train"], splits["val"], splits["test"]


@pytest.fixture(scope="module")
def trained_models(dataset):
    """Default-config model plus its no-dropout ablation, with wall time."""
    train_split, _, _ = dataset
    start = time.perf_counter()
    dropout = FusionNetwork(seed=0)
    train(dropout, train_split, TrainConfig())
    plain = FusionNetwork(seed=0)
    train(plain, train_split, TrainConfig(p_drop=0.0))
    elapsed = time.perf_counter() - start
    return dropout, plain, elapsed


def _op_gradcheck_errors():
    """Central-difference error for every differentiable op, worst first."""
    rng = Rng(8161)

    def rand(shape, spread=1.0):
        return rng.normal(shape) * spread

    def weight(shape):
        return Tensor(rng.normal(shape))

    errs = {}

    x = Tensor(rand((3, 4)), requires_grad=True)
    other = Tensor(rand((3, 4)))
    w = weight((3, 4))
    errs["add"] = grad_check(lambda t: ops.sum_(ops.mul(ops.add(t, other), w)), x)

    bias = Tensor(rand((4,)), requires_grad=True)
    base = Tensor(rand((2, 3, 4)))
    w = weight((2, 3, 4))
    errs["add_bias"] = grad_check(lambda t: ops.sum_(ops.mul(ops.add(base, t), w)), bias)

    x = Tensor(rand((3, 4)), requires_grad=True)
    other = Tensor(rand((3, 4)))
    w = weight((3, 4))
    errs["mul"] = grad_check(lambda t: ops.sum_(ops.mul(ops.mul(t, other), w)), x)

    x = Tensor(rand((5,)), requires_grad=True)
    w = weight((5,))
    errs["scale"] = grad_check(lambda t: ops.sum_(ops.mul(ops.scale(t, -2.5), w)), x)

    x = Tensor(rand((4, 4), spread=2.0), requires_grad=True)
    w = weight((4, 4))
    errs["gelu"] = grad_check(lambda t: ops.sum_(ops.mul(ops.gelu(t), w)), x)

    x = Tensor(rand((2, 6)), requires_grad=True)
    w = weight((3, 4))
    errs["reshape"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.reshape(t, (3, 4)), w)), x)

    x = Tensor(rand((2, 3, 4)), requires_grad=True)
    w = weight((4, 2, 3))
    errs["transpose"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.transpose(t, (2, 0, 1)), w)), x)

    x = Tensor(rand((2, 3)), requires_grad=True)
    other = Tensor(rand((2, 2)))
    w = weight((2, 5))
    errs["concat"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.concat([t, other], axis=1), w)), x)

    x = Tensor(rand((4, 5)), requires_grad=True)
    w = weight((2, 3))
    errs["slice"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.slice_(t, (slice(1, 3), slice(0, 3))), w)), x)

    x = Tensor(rand((3, 4)), requires_grad=True)
    errs["mean"] = grad_check(lambda t: ops.mean(t), x)
    w = weight((4,))
    errs["mean_axis"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.mean(t, axis=0), w)), x)

    x = Tensor(rand((3, 4)), requires_grad=True)
    w = weight((3,))
    errs["sum_axis"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.sum_(t, axis=1), w)), x)

    a = Tensor(rand((3, 4)), requires_grad=True)
    b = Tensor(rand((4, 2)), requires_grad=True)
    w = weight((3, 2))
    fixed_a, fixed_b = Tensor(a.data.copy()), Tensor(b.data.copy())
    errs["matmul_left"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.matmul(t, fixed_b), w)), a)
    errs["matmul_right"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.matmul(fixed_a, t), w)), b)

    a = Tensor(rand((2, 3, 4)), requires_grad=True)
    fixed_b = Tensor(rand((4, 5)))
    w = weight((2, 3, 5))
    errs["matmul_batched"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.matmul(t, fixed_b), w)), a)

    x = Tensor(rand((3, 5), spread=2.0), requires_grad=True)
    w = weight((3, 5))
    errs["softmax"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.softmax(t, axis=-1), w)), x)

    x = Tensor(rand((3, 8), spread=2.0), requires_grad=True)
    gain = Tensor(1.0 + 0.1 * rand((8,)), requires_grad=True)
    ln_bias = Tensor(0.1 * rand((8,)), requires_grad=True)
    w = weight((3, 8))
    fixed_x = Tensor(x.data.copy())
    fixed_g, fixed_lb = Tensor(gain.data.copy()), Tensor(ln_bias.data.copy())
    errs["layer_norm_x"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.layer_norm(t, fixed_g, fixed_lb), w)), x)
    errs["layer_norm_gain"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.layer_norm(fixed_x, t, fixed_lb), w)), gain)
    errs["layer_norm_bias"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.layer_norm(fixed_x, fixed_g, t), w)), ln_bias)

    table = Tensor(rand((6, 4)), requires_grad=True)
    ids = np.array([1, 3, 1, 5])  # repeated id exercises scatter-add
    w = weight((4, 4))
    errs["embedding_lookup"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.embedding_lookup(t, ids), w)), table)

    logits = Tensor(rand((4, 3), spread=1.5), requires_grad=True)
    labels = np.array([0, 2, 1, 1])
    errs["cross_entropy"] = grad_check(
        lambda t: ops.cross_entropy(ops.softmax(t, axis=-1), labels), logits)

    x = Tensor(rand((3, 4)), requires_grad=True)
    lin_w = Tensor(rand((4, 2)), requires_grad=True)
    lin_b = Tensor(rand((2,)), requires_grad=True)
    w = weight((3, 2))
    fixed_x, fixed_w, fixed_b = (Tensor(t.data.copy()) for t in (x, lin_w, lin_b))
    errs["linear_x"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.linear(t, fixed_w, fixed_b), w)), x)
    errs["linear_weight"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.linear(fixed_x, t, fixed_b), w)), lin_w)
    errs["linear_bias"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.linear(fixed_x, fixed_w, t), w)), lin_b)
    errs["linear_no_bias"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.linear(fixed_x, t), w)), lin_w)
    x = Tensor(rand((2, 3, 4)), requires_grad=True)
    w = weight((2, 3, 2))
    fixed_x = Tensor(x.data.copy())
    errs["linear_batched_x"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.linear(t, fixed_w, fixed_b), w)), x)
    errs["linear_batched_weight"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.linear(fixed_x, t, fixed_b), w)), lin_w)

    # One head: the leading axis is a batch axis of single-head attention.
    heads = 1
    q, k, v = (Tensor(rand((2, 3, 4)), requires_grad=True) for _ in range(3))
    w = weight((2, 3, 4))
    fixed_q, fixed_k, fixed_v = (Tensor(t.data.copy()) for t in (q, k, v))
    errs["attention_q"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(t, fixed_k, fixed_v, heads)[0], w)), q)
    errs["attention_k"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(fixed_q, t, fixed_v, heads)[0], w)), k)
    errs["attention_v"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(fixed_q, fixed_k, t, heads)[0], w)), v)

    # Fewer query rows than keys, as in the last fusion block.
    q = Tensor(rand((2, 2, 4)), requires_grad=True)
    k, v = (Tensor(rand((2, 5, 4)), requires_grad=True) for _ in range(2))
    w = weight((2, 2, 4))
    fixed_q, fixed_k, fixed_v = (Tensor(t.data.copy()) for t in (q, k, v))
    errs["attention_rows_q"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(t, fixed_k, fixed_v, heads)[0], w)), q)
    errs["attention_rows_k"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(fixed_q, t, fixed_v, heads)[0], w)), k)
    errs["attention_rows_v"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(fixed_q, fixed_k, t, heads)[0], w)), v)

    # Two heads of width 2, split and merged inside the op.
    heads = 2
    q, k, v = (Tensor(rand((2, 3, 4)), requires_grad=True) for _ in range(3))
    w = weight((2, 3, 4))
    fixed_q, fixed_k, fixed_v = (Tensor(t.data.copy()) for t in (q, k, v))
    errs["attention_heads2_q"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(t, fixed_k, fixed_v, heads)[0], w)), q)
    errs["attention_heads2_k"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(fixed_q, t, fixed_v, heads)[0], w)), k)
    errs["attention_heads2_v"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(fixed_q, fixed_k, t, heads)[0], w)), v)

    q = Tensor(rand((2, 2, 4)), requires_grad=True)
    k, v = (Tensor(rand((2, 5, 4)), requires_grad=True) for _ in range(2))
    w = weight((2, 2, 4))
    fixed_q, fixed_k, fixed_v = (Tensor(t.data.copy()) for t in (q, k, v))
    errs["attention_heads2_rows_q"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(t, fixed_k, fixed_v, heads)[0], w)), q)
    errs["attention_heads2_rows_k"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(fixed_q, t, fixed_v, heads)[0], w)), k)
    errs["attention_heads2_rows_v"] = grad_check(
        lambda t: ops.sum_(ops.mul(ops.attention(fixed_q, fixed_k, t, heads)[0], w)), v)

    return errs


def test_criterion_1_gradient_correctness(dataset):
    start = time.perf_counter()
    errs = _op_gradcheck_errors()
    worst_op = max(errs, key=errs.get)

    train_split, _, _ = dataset
    net = FusionNetwork(seed=3)
    batch = prepare_samples(train_split[:2], net.config)

    def loss_fn():
        return net.loss(net.forward(batch), batch.command_ids, batch.seg_labels)

    rng = Rng(17)
    paths = net.store.paths()
    picks = []
    for _ in range(20):
        path = paths[int(rng.integers(0, len(paths)))]
        index = int(rng.integers(0, net.store[path].size))
        picks.append((path, index))
    end_to_end = grad_check_components(loss_fn, net.store, picks)
    elapsed = time.perf_counter() - start

    ok = max(errs.values()) < 1e-5 and end_to_end < 1e-4 and elapsed < 120.0
    _verdict(1, "gradient correctness", ok,
             f"ops worst {errs[worst_op]:.2e} ({worst_op}), "
             f"end-to-end {end_to_end:.2e}, {elapsed:.1f}s")


def test_criterion_2_geometry_oracle():
    worst = 0.0
    checked = 0
    for seed in range(100):
        scene = generate_scene(seed)
        cloud = simulate_depth_scan(scene, row_step=1)
        sparse = project_point_cloud(cloud)
        rendered = render_depth(scene)
        rows, cols = np.nonzero(sparse.valid)
        assert rows.size > 0
        assert np.all(rendered.valid[rows, cols])
        diff = np.abs(sparse.values[rows, cols] - rendered.values[rows, cols])
        worst = max(worst, float(diff.max()))
        checked += rows.size
    ok = worst <= 1e-6
    _verdict(2, "projected scan vs ray-cast depth", ok,
             f"100 scenes, {checked} hit pixels, max |diff| {worst:.2e} m")


def test_criterion_3_mask_equivalence(dataset):
    train_split, val_split, test_split = dataset
    pool = list(train_split) + list(val_split) + list(test_split)
    order = Rng(303).permutation(len(pool))
    picked = [pool[i] for i in order[:50]]

    net = FusionNetwork(seed=0)
    batch = prepare_samples(picked, net.config)
    assert set(batch.patterns) == {(True, True, True)}
    inputs = {"camera": batch.camera, "depth": batch.depth, "text": batch.text}
    latents = [net.branches[m].encode(inputs[m]) for m in MODS]

    worst = 0.0
    for drop in MODS:
        mask = AvailabilityMask(**{m: m != drop for m in MODS})
        masked = net.fusion.fuse(latents, mask)
        removed = net.fusion.fuse([s for s in latents if s.modality != drop], mask)
        worst = max(worst, float(
            np.abs(masked.summary.data - removed.summary.data).max()))
        for m in MODS:
            if m == drop:
                continue
            delta = masked.span_tokens(m).data - removed.span_tokens(m).data
            worst = max(worst, float(np.abs(delta).max()))
        worst = max(worst, float(
            np.abs(masked.arbitration - removed.arbitration).max()))
    ok = worst < 1e-9
    _verdict(3, "masked equals physically removed", ok,
             f"50 samples x 3 modalities, max |dev| {worst:.2e}")


def test_criterion_4_gradient_isolation(dataset):
    train_split, _, _ = dataset
    net = FusionNetwork(seed=0)
    batch = prepare_samples(train_split[:2], net.config)

    clean = True
    detail = []
    for drop in MODS:
        net.store.zero_grad()
        with Tape() as tape:
            result = net.forward(batch, AvailabilityMask(**{m: m != drop for m in MODS}))
            loss = net.loss(result, batch.command_ids, batch.seg_labels)
        backward(tape, loss)
        nonzero = []
        for path in net.store.paths():
            if not path.startswith(f"encoder.{drop}."):
                continue
            grad = net.store[path].grad
            if grad is not None and np.count_nonzero(grad):
                nonzero.append(path)
        others = [net.store[p].grad for p in net.store.paths()
                  if p.startswith("encoder.") and not p.startswith(f"encoder.{drop}.")]
        assert any(g is not None and np.any(g != 0.0) for g in others)
        clean = clean and not nonzero
        detail.append(f"{drop}: {len(nonzero)} leaking")
    _verdict(4, "masked-branch gradients exactly zero", clean, ", ".join(detail))


SINGLE_FAULTS = (
    FaultSpec("camera", "blackout"),
    FaultSpec("camera", "gaussian_noise", 0.5, seed=11),
    FaultSpec("camera", "stuck_at", 0.7),
    FaultSpec("lidar", "blackout"),
    FaultSpec("lidar", "gaussian_noise", 0.05, seed=12),
    FaultSpec("lidar", "miscalibration_shift", 2.0),
    FaultSpec("lidar", "partial_dropout", 0.5, seed=13),
    FaultSpec("text", "blackout"),
)


def test_criterion_5_fail_operational(dataset, trained_models):
    _, _, test_split = dataset
    net, _, _ = trained_models

    bad_outputs = 0
    for spec in SINGLE_FAULTS:
        faulted = [inject_fault(s, spec) for s in test_split]
        features = prepare_samples(faulted, net.config)
        for indices in group_by_availability(features).values():
            batch = stack_features(features, indices)
            result = net.forward(batch)
            if not (np.isfinite(result.command_probs.data).all()
                    and np.isfinite(result.seg_probs.data).all()):
                bad_outputs += 1

    triple = tuple(FaultSpec(m, "blackout") for m in ("camera", "lidar", "text"))
    dead = [inject_faults(s, triple) for s in test_split]
    features = prepare_samples(dead, net.config)
    assert set(features.patterns) == {(False, False, False)}
    with pytest.raises(FusionError):
        net.forward(features)

    report = fail_operational_eval(
        Campaign(net, test_split),
        scenarios=[Scenario("nominal"), Scenario("triple_blackout", triple)])
    silent = report.result("triple_blackout").status == FAIL_SILENT

    ok = bad_outputs == 0 and silent
    _verdict(5, "fail-operational contract", ok,
             f"{len(SINGLE_FAULTS)} single-fault scenarios x {len(test_split)} "
             f"samples, {bad_outputs} non-finite batches, "
             f"triple failure: {report.result('triple_blackout').status}")


def test_criterion_6_asil_checker_equivalence():
    # Pairwise decompositions listed in the standard, plus every
    # over-provisioned variant that dominates one of them.
    table = {
        "D": [("D", "QM"), ("C", "A"), ("B", "B")],
        "C": [("C", "QM"), ("B", "A")],
        "B": [("B", "QM"), ("A", "A")],
        "A": [("A", "QM")],
        "QM": [("QM", "QM")],
    }

    def oracle(parent, p1, p2):
        hi, lo = max(p1, p2, key=ASIL_RANK.get), min(p1, p2, key=ASIL_RANK.get)
        return any(
            ASIL_RANK[hi] >= ASIL_RANK[q1] and ASIL_RANK[lo] >= ASIL_RANK[q2]
            for q1, q2 in table[parent]
        )

    start = time.perf_counter()
    mismatches = 0
    for parent in ASIL_LEVELS:
        for p1 in ASIL_LEVELS:
            for p2 in ASIL_LEVELS:
                if rank_sum_valid(parent, (p1, p2)) != oracle(parent, p1, p2):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 1.0
    _verdict(6, "rank-sum matches decomposition table", ok,
             f"125 combinations, {mismatches} mismatches, {elapsed * 1000:.0f}ms")


def test_criterion_7_learning_sanity(dataset, trained_models):
    _, _, test_split = dataset
    dropout, plain, train_elapsed = trained_models

    dark = [inject_fault(s, FaultSpec("camera", "blackout")) for s in test_split]
    nominal, _ = Campaign(dropout, test_split).evaluate()
    dropout_dark, _ = Campaign(dropout, dark).evaluate()
    plain_dark, _ = Campaign(plain, dark).evaluate()

    assert nominal.command_accuracy > 0.0
    retained = dropout_dark.command_accuracy / nominal.command_accuracy
    ok = (nominal.command_accuracy >= 0.90
          and retained >= 0.60
          and plain_dark.command_accuracy < dropout_dark.command_accuracy
          and train_elapsed < 600.0)
    _verdict(7, "modality-dropout learning sanity", ok,
             f"nominal {nominal.command_accuracy:.3f}, blackout retained "
             f"{retained:.3f}, no-dropout blackout {plain_dark.command_accuracy:.3f} "
             f"< dropout blackout {dropout_dark.command_accuracy:.3f}, "
             f"training {train_elapsed:.0f}s")


def test_criterion_8_pipeline_determinism(tmp_path):
    config = RunConfig(
        model=ModelConfig(d=16, blocks=1, heads=2, patch=8, text_len=8),
        training=TrainConfig(epochs=2, batch_size=8, seed=0),
        dataset=DatasetConfig(count=80, seed=21),
        sigmas=(0.0, 0.5),
        paths=Paths(
            dataset_dir=str(tmp_path / "data"),
            checkpoint=str(tmp_path / "out/model.ckpt"),
            train_metrics=str(tmp_path / "out/train_metrics.json"),
            eval_report=str(tmp_path / "out/eval_report.json"),
            eval_summary=str(tmp_path / "out/eval_report.txt"),
            report=str(tmp_path / "out/report.json"),
            report_summary=str(tmp_path / "out/report.txt"),
            timings=str(tmp_path / "out/timings.json"),
        ),
    )
    config_path = tmp_path / "run.json"
    config.save(config_path)
    env = {**os.environ,
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
           "PYTHONHASHSEED": "0"}

    def run_once():
        for sub in ("generate", "train", "eval"):
            proc = subprocess.run(
                [sys.executable, "-m", "ffusion.cli", sub,
                 "--config", str(config_path)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, f"{sub} failed: {proc.stderr}"
        return {name: Path(path).read_bytes() for name, path in (
            ("train_metrics", config.paths.train_metrics),
            ("eval_report", config.paths.eval_report),
            ("eval_summary", config.paths.eval_summary),
        )}

    first = run_once()
    shutil.rmtree(tmp_path / "data")
    shutil.rmtree(tmp_path / "out")
    second = run_once()

    stable = sorted(name for name in first if first[name] == second[name])
    ok = first == second
    _verdict(8, "generate/train/eval byte-identical", ok,
             f"{len(stable)}/{len(first)} files identical: {', '.join(stable)}")


def test_criterion_9_probe_sanity(dataset, trained_models):
    train_split, val_split, _ = dataset
    net, _, _ = trained_models

    text = probe_modality(net, train_split, val_split, "text")
    # A single shuffled-label draw is a plurality lottery over the few
    # distinct text embeddings (observed range 0.0 to 0.44), so chance
    # level is estimated as the mean over a fixed grid of label draws.
    draws = [probe_modality(net, train_split, val_split, "text",
                            shuffle_labels=True, seed=seed).accuracy
             for seed in range(7, 15)]
    chance = float(np.mean(draws))
    ok = text.accuracy >= 0.95 and abs(chance - 0.25) <= 0.10
    _verdict(9, "linear probe sanity", ok,
             f"text probe {text.accuracy:.3f}, shuffled-label probe mean "
             f"{chance:.3f} over {len(draws)} label draws")
