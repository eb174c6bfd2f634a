"""Gradient correctness, optimizer behavior, rng determinism and checkpoints."""

import hashlib
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffusion.autodiff import (
    AdamState,
    ParamStore,
    Rng,
    Tape,
    Tensor,
    adam_step,
    backward,
    grad_check,
    grad_check_components,
    load_checkpoint,
    ops,
    save_checkpoint,
)
from ffusion.autodiff.tensor import record_op
from ffusion.errors import CheckpointError, GradientError, OptimizerError
from ffusion.model import (
    MODALITIES, AvailabilityMask, FusionNetwork, ModelConfig, prepare_samples)
from ffusion.safety import independence
from ffusion.scene import synthesize_sample

TOL = 1e-5


def _rand(rng, shape, spread=1.0):
    return rng.normal(shape) * spread


class TestGradCheckAllOps:
    """Central-difference verification for every differentiable op."""

    def setup_method(self):
        self.rng = Rng(20240817)
        self.w = None

    def _weight(self, shape):
        # Fixed random weighting turns any output into a generic scalar.
        return Tensor(self.rng.normal(shape))

    def test_add_same_shape(self):
        x = Tensor(_rand(self.rng, (3, 4)), requires_grad=True)
        other = Tensor(_rand(self.rng, (3, 4)))
        w = self._weight((3, 4))
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.add(t, other), w)), x) < TOL

    def test_add_bias_side(self):
        x = Tensor(_rand(self.rng, (4,)), requires_grad=True)
        base = Tensor(_rand(self.rng, (2, 3, 4)))
        w = self._weight((2, 3, 4))
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.add(base, t), w)), x) < TOL

    def test_mul(self):
        x = Tensor(_rand(self.rng, (3, 4)), requires_grad=True)
        other = Tensor(_rand(self.rng, (3, 4)))
        w = self._weight((3, 4))
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.mul(t, other), w)), x) < TOL

    def test_scale(self):
        x = Tensor(_rand(self.rng, (5,)), requires_grad=True)
        w = self._weight((5,))
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.scale(t, -2.5), w)), x) < TOL

    def test_gelu(self):
        x = Tensor(_rand(self.rng, (4, 4), spread=2.0), requires_grad=True)
        w = self._weight((4, 4))
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.gelu(t), w)), x) < TOL

    def test_reshape(self):
        x = Tensor(_rand(self.rng, (2, 6)), requires_grad=True)
        w = self._weight((3, 4))
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.reshape(t, (3, 4)), w)), x) < TOL

    def test_transpose(self):
        x = Tensor(_rand(self.rng, (2, 3, 4)), requires_grad=True)
        w = self._weight((4, 2, 3))
        assert grad_check(
            lambda t: ops.sum_(ops.mul(ops.transpose(t, (2, 0, 1)), w)), x
        ) < TOL

    def test_concat(self):
        x = Tensor(_rand(self.rng, (2, 3)), requires_grad=True)
        other = Tensor(_rand(self.rng, (2, 2)))
        w = self._weight((2, 5))
        assert grad_check(
            lambda t: ops.sum_(ops.mul(ops.concat([t, other], axis=1), w)), x
        ) < TOL

    def test_slice(self):
        x = Tensor(_rand(self.rng, (4, 5)), requires_grad=True)
        w = self._weight((2, 3))
        assert grad_check(
            lambda t: ops.sum_(ops.mul(ops.slice_(t, (slice(1, 3), slice(0, 3))), w)), x
        ) < TOL

    def test_mean_full_and_axis(self):
        x = Tensor(_rand(self.rng, (3, 4)), requires_grad=True)
        assert grad_check(lambda t: ops.mean(t), x) < TOL
        w = self._weight((4,))
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.mean(t, axis=0), w)), x) < TOL

    def test_sum_axis(self):
        x = Tensor(_rand(self.rng, (3, 4)), requires_grad=True)
        w = self._weight((3,))
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.sum_(t, axis=1), w)), x) < TOL

    def test_matmul_left_and_right(self):
        a = Tensor(_rand(self.rng, (3, 4)), requires_grad=True)
        b = Tensor(_rand(self.rng, (4, 2)), requires_grad=True)
        w = self._weight((3, 2))
        fixed_b = Tensor(b.data.copy())
        fixed_a = Tensor(a.data.copy())
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.matmul(t, fixed_b), w)), a) < TOL
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.matmul(fixed_a, t), w)), b) < TOL

    def test_matmul_batched(self):
        a = Tensor(_rand(self.rng, (2, 3, 4)), requires_grad=True)
        b = Tensor(_rand(self.rng, (4, 5)), requires_grad=True)
        w = self._weight((2, 3, 5))
        fixed_b = Tensor(b.data.copy())
        fixed_a = Tensor(a.data.copy())
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.matmul(t, fixed_b), w)), a) < TOL
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.matmul(fixed_a, t), w)), b) < TOL

    def test_softmax(self):
        x = Tensor(_rand(self.rng, (3, 5), spread=2.0), requires_grad=True)
        w = self._weight((3, 5))
        assert grad_check(lambda t: ops.sum_(ops.mul(ops.softmax(t, axis=-1), w)), x) < TOL

    def test_layer_norm_all_inputs(self):
        x = Tensor(_rand(self.rng, (3, 8), spread=2.0), requires_grad=True)
        gain = Tensor(1.0 + 0.1 * _rand(self.rng, (8,)), requires_grad=True)
        bias = Tensor(0.1 * _rand(self.rng, (8,)), requires_grad=True)
        w = self._weight((3, 8))
        fixed_g = Tensor(gain.data.copy())
        fixed_b = Tensor(bias.data.copy())
        fixed_x = Tensor(x.data.copy())
        assert grad_check(
            lambda t: ops.sum_(ops.mul(ops.layer_norm(t, fixed_g, fixed_b), w)), x
        ) < TOL
        assert grad_check(
            lambda t: ops.sum_(ops.mul(ops.layer_norm(fixed_x, t, fixed_b), w)), gain
        ) < TOL
        assert grad_check(
            lambda t: ops.sum_(ops.mul(ops.layer_norm(fixed_x, fixed_g, t), w)), bias
        ) < TOL

    def test_embedding_lookup(self):
        table = Tensor(_rand(self.rng, (6, 4)), requires_grad=True)
        ids = np.array([1, 3, 1, 5])  # repeated id exercises scatter-add
        w = self._weight((4, 4))
        assert grad_check(
            lambda t: ops.sum_(ops.mul(ops.embedding_lookup(t, ids), w)), table
        ) < TOL

    def test_cross_entropy(self):
        logits = _rand(self.rng, (4, 3), spread=1.5)
        labels = np.array([0, 2, 1, 1])
        x = Tensor(logits, requires_grad=True)
        # Drive through softmax so probabilities stay a valid distribution.
        assert grad_check(
            lambda t: ops.cross_entropy(ops.softmax(t, axis=-1), labels), x
        ) < TOL

    def test_grad_check_catches_wrong_gradient(self):
        # Negative control: a deliberately broken backward rule must fail.
        def bad_square(t):
            out = Tensor._result(t.data * t.data, t.requires_grad)
            record_op((t,), out, lambda g: (g * t.data,))  # missing factor 2
            return out

        x = Tensor([1.0, 2.0], requires_grad=True)
        err = grad_check(lambda t: ops.sum_(bad_square(t)), x)
        assert err > 1e-2

    @pytest.mark.parametrize("fails_on", [1, 2, 3])
    def test_grad_check_restores_input_when_fn_raises(self, fails_on):
        # fn raises on its taped call, on x[0] + EPS or on x[0] - EPS.
        calls = []

        def fn(t):
            calls.append(None)
            if len(calls) == fails_on:
                raise RuntimeError("fn failed")
            return ops.sum_(ops.mul(t, t))

        x = Tensor([1.0, 2.0], requires_grad=True)
        before = x.data.tobytes()
        with pytest.raises(RuntimeError, match="fn failed"):
            grad_check(fn, x)
        assert x.data.tobytes() == before
        assert x.grad is None

    def test_grad_check_components_restores_parameter_when_loss_raises(self):
        store = ParamStore()
        w = store.register("w", Tensor([1.0, 2.0], requires_grad=True))
        calls = []

        def loss_fn():
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("loss failed")
            return ops.sum_(ops.mul(w, w))

        with pytest.raises(RuntimeError, match="loss failed"):
            grad_check_components(loss_fn, store, [("w", 0)])
        assert w.data.tobytes() == np.array([1.0, 2.0]).tobytes()
        assert w.grad is None


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # p = 0, g = 1: bias correction makes the first step almost exactly -lr.
        store = ParamStore()
        store.register("p", Tensor(np.zeros(1), requires_grad=True))
        adam_step(store, {"p": np.ones(1)}, AdamState.for_store(store), 1e-3)
        assert abs(store["p"].data[0] + 1e-3) < 1e-10

    def test_two_identical_runs_agree_exactly(self):
        def run():
            store = ParamStore()
            store.register("w", Tensor(np.linspace(-1, 1, 8), requires_grad=True))
            state = AdamState.for_store(store)
            rng = Rng(5)
            for _ in range(10):
                adam_step(store, {"w": rng.normal((8,))}, state, 1e-3)
            return store["w"].data.copy()

        assert np.array_equal(run(), run())

    def test_rejects_non_finite_gradient(self):
        store = ParamStore()
        store.register("w", Tensor(np.zeros(2), requires_grad=True))
        bad = np.array([1.0, float("nan")])
        with pytest.raises(OptimizerError) as err:
            adam_step(store, {"w": bad}, AdamState.for_store(store), 1e-3)
        assert "w" in str(err.value)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
    def test_rejects_bad_learning_rate(self, lr):
        store = ParamStore()
        store.register("w", Tensor(np.zeros(2), requires_grad=True))
        state = AdamState.for_store(store)
        with pytest.raises(OptimizerError, match="lr must be positive and finite"):
            adam_step(store, {"w": np.ones(2)}, state, lr)
        assert state.step == 0 and np.all(store["w"].data == 0.0)

    def test_rejects_shape_mismatch(self):
        store = ParamStore()
        store.register("w", Tensor(np.zeros(2), requires_grad=True))
        with pytest.raises(OptimizerError):
            adam_step(store, {"w": np.zeros(3)}, AdamState.for_store(store), 1e-3)

    def test_descends_quadratic(self):
        # Minimize sum((x - 3)^2); Adam should approach x = 3.
        store = ParamStore()
        x = store.register("x", Tensor(np.zeros(4), requires_grad=True))
        state = AdamState.for_store(store)
        target = Tensor(np.full(4, -3.0))
        for _ in range(400):
            store.zero_grad()
            with Tape() as tape:
                diff = ops.add(x, target)
                loss = ops.sum_(ops.mul(diff, diff))
            backward(tape, loss)
            adam_step(store, store.gradients(), state, 0.05)
        assert np.allclose(x.data, 3.0, atol=1e-2)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).normal((5,))
        b = Rng(42).normal((5,))
        assert np.array_equal(a, b)

    def test_derive_is_order_independent(self):
        root = Rng(7)
        root.normal((100,))  # consume draws; derivation must not care
        child1 = root.derive("weights").normal((4,))
        child2 = Rng(7).derive("weights").normal((4,))
        assert np.array_equal(child1, child2)

    def test_distinct_labels_distinct_streams(self):
        root = Rng(7)
        a = root.derive("a").normal((8,))
        b = root.derive("b").normal((8,))
        assert not np.array_equal(a, b)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(1.5)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = Rng(13)
        store = ParamStore()
        store.register("enc.w", Tensor(rng.normal((7, 3)), requires_grad=True))
        store.register("enc.b", Tensor(rng.normal((3,)), requires_grad=True))
        store.register("head", Tensor(np.array(0.123456789012345), requires_grad=True))
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)
        loaded = load_checkpoint(path)
        assert sorted(loaded) == ["enc.b", "enc.w", "head"]
        for name, _ in store.items():
            assert np.array_equal(loaded[name], store[name].data)

    def test_save_is_deterministic_bytes(self, tmp_path):
        store = ParamStore()
        store.register("b", Tensor(np.ones(2), requires_grad=True))
        store.register("a", Tensor(np.zeros(3), requires_grad=True))
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_checkpoint(store, p1)
        save_checkpoint(store, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_default_network_bytes_are_pinned(self, tmp_path):
        """model.ckpt's layout: a default FusionNetwork(seed=0) writes the
        bytes it wrote before the container was shared with the dataset files."""
        path = tmp_path / "model.ckpt"
        FusionNetwork(seed=0).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "187d351e1237a41c459365b9914887ff0345e19e98e5abe66ac1a8c283f025d4")

    @pytest.mark.parametrize("name", ["end", "", "enc w"])
    def test_unreadable_path_rejected_on_save(self, tmp_path, name):
        """A path that would end the header early or split its line."""
        with pytest.raises(CheckpointError, match="is empty, 'end' or holds whitespace"):
            save_checkpoint({name: np.zeros(()), "w": np.ones(2)}, tmp_path / "model.ckpt")
        assert not (tmp_path / "model.ckpt").exists()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOT-A-CHECKPOINT\nend\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path):
        store = ParamStore()
        store.register("w", Tensor(np.ones(4), requires_grad=True))
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_load_state_dict_shape_mismatch(self, tmp_path):
        store = ParamStore()
        store.register("w", Tensor(np.ones(4), requires_grad=True))
        with pytest.raises(CheckpointError) as err:
            store.load_state_dict({"w": np.ones(5)})
        assert "w" in str(err.value)
        with pytest.raises(CheckpointError):
            store.load_state_dict({"other": np.ones(4)})

    def test_load_state_dict_rejects_non_finite(self):
        store = ParamStore()
        store.register("w", Tensor(np.ones(4), requires_grad=True))
        with pytest.raises(CheckpointError, match="'w'.*non-finite"):
            store.load_state_dict({"w": np.array([1.0, np.nan, 1.0, 1.0])})
        assert np.array_equal(store["w"].data, np.ones(4))

    # Each data block is as long as int() parsing of the header would read.
    @pytest.mark.parametrize("header, values", [
        (b"1\nw -1 -1", 1),
        (b"1\nw -2 -4", 8),
        (b"1\nw 4294967296 4294967296", 0),  # the int64 product wraps to 0
        (b"+1\nw 1", 1),
        (b"1\nw 0_2", 2),
        (b"1\nw " + b"1 " * 65, 1),  # more dimensions than numpy supports
    ])
    def test_rejects_malformed_header(self, tmp_path, header, values):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"FFUSION-CKPT v1\n" + header + b"\nend\n" + bytes(8 * values))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def _checkpoint_bytes() -> bytes:
    rng = Rng(5)
    store = ParamStore()
    store.register("enc.w", Tensor(rng.normal((3, 2)), requires_grad=True))
    store.register("enc.b", Tensor(rng.normal((2,)), requires_grad=True))
    store.register("head", Tensor(np.array(0.5), requires_grad=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(store, path)
        return path.read_bytes()


CHECKPOINT = _checkpoint_bytes()


def _load_or_reject(data: bytes):
    """load_checkpoint's result for a file holding data, or None on CheckpointError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(data)
        try:
            params = load_checkpoint(path)
        except CheckpointError:
            return None
    assert all(isinstance(name, str) and isinstance(arr, np.ndarray)
               and arr.dtype == np.float64 for name, arr in params.items())
    return params


class TestCheckpointProperties:
    def test_every_truncation_rejected(self):
        for end in range(len(CHECKPOINT)):
            assert _load_or_reject(CHECKPOINT[:end]) is None, end
        assert sorted(_load_or_reject(CHECKPOINT)) == ["enc.b", "enc.w", "head"]

    @given(offset=st.integers(0, len(CHECKPOINT) - 1), value=st.integers(0, 255))
    def test_one_byte_mutation_rejected_or_loaded(self, offset, value):
        _load_or_reject(CHECKPOINT[:offset] + bytes([value]) + CHECKPOINT[offset + 1:])


def _sequential_grads(tape, loss) -> dict:
    """Leaf gradients from one plain reverse walk of the whole tape."""
    produced = {id(rec.output) for rec in tape.records}
    flowing = {id(loss): np.ones_like(loss.data)}
    leaves = {}
    for rec in reversed(tape.records):
        out_grad = flowing.pop(id(rec.output), None)
        if out_grad is None:
            continue
        for tensor, contrib in zip(rec.inputs, rec.backward_fn(out_grad)):
            if contrib is None or not tensor.requires_grad:
                continue
            if id(tensor) not in produced:
                leaves[id(tensor)] = tensor
            held = flowing.get(id(tensor))
            flowing[id(tensor)] = contrib if held is None else held + contrib
    return {tid: flowing[tid] for tid in leaves}


def _network_step():
    net = FusionNetwork(config=ModelConfig(), seed=0)
    root = Rng(11)
    samples = [synthesize_sample(f"{i:06d}", root.derive_seed(f"sample/{i:06d}"))
               for i in range(3)]
    return net, prepare_samples(samples, net.config)


def _assert_grads_equal(store, expected: dict) -> None:
    for path, param in store.items():
        want = expected.get(id(param))
        if want is None:
            assert param.grad is None, path
        else:
            assert param.grad is not None and np.array_equal(param.grad, want), path


class TestConcurrentBackward:
    """`backward` runs the tape's independent head groups on two threads;
    every gradient must equal a sequential reverse walk bit for bit."""

    @pytest.mark.parametrize("dropped", [None, *MODALITIES])
    def test_network_step_matches_sequential(self, dropped):
        # A full training step and each one-modality-dropped step.
        mask = AvailabilityMask(**{m: m != dropped for m in MODALITIES})
        net, batch = _network_step()
        with Tape() as tape:
            loss = net.loss(net.forward(batch, mask), batch.command_ids, batch.seg_labels)
        expected = _sequential_grads(tape, loss)
        backward(tape, loss)
        _assert_grads_equal(net.store, expected)

    def test_check_functional_steps_match_sequential(self, monkeypatch):
        net, batch = _network_step()
        steps = []

        def checked(tape, loss):
            expected = _sequential_grads(tape, loss)
            backward(tape, loss)
            _assert_grads_equal(net.store, expected)
            steps.append(loss)

        monkeypatch.setattr(independence, "backward", checked)
        results, _ = independence.check_functional(net, batch)
        assert all(results.values()) and len(steps) == len(MODALITIES)

    def test_shared_leaf_keeps_sequential_sum_order(self):
        # Two chains share w, so they form one group; a third chain on u is
        # its own group, and the tail uses w too. Summing w's terms in any
        # other order than the sequential one gives different bits.
        big = 1e16
        w = Tensor([1.0], requires_grad=True)
        u = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            a = ops.mul(w, Tensor.constant([big]))
            b = ops.mul(w, Tensor.constant([-big]))
            head = ops.add(ops.add(a, b), ops.scale(ops.mul(u, u), 0.5))
            loss = ops.sum_(ops.add(head, ops.mul(w, Tensor.constant([1.0]))))
        expected = _sequential_grads(tape, loss)
        assert expected[id(w)][0] != (big - big) + 1.0
        backward(tape, loss)
        assert np.array_equal(w.grad, expected[id(w)])
        assert np.array_equal(u.grad, expected[id(u)])

    def test_head_group_error_reaches_caller(self):
        # The big group blocks until the bad group has run, so the two run
        # on different threads; the bad rule's error must still surface.
        ran = threading.Event()

        def waits(g):
            assert ran.wait(10.0), "head groups did not run concurrently"
            return (g,)

        def bad(g):
            ran.set()
            return (np.zeros(3),)

        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            slow = ops.scale(x, 1.0)
            for _ in range(3):
                slow = ops.scale(slow, 1.0)
            out = Tensor._result(slow.data.copy(), True)
            record_op((slow,), out, waits)
            broken = Tensor._result(y.data.copy(), True)
            record_op((y,), broken, bad)
            loss = ops.sum_(ops.add(out, broken))
        with pytest.raises(GradientError, match="does not match"):
            backward(tape, loss)

    def test_repeated_calls_reuse_one_worker(self):
        before = threading.active_count()
        threads = []

        def note(g):
            threads.append(threading.current_thread())
            assert threading.active_count() <= before + 1
            return (g,)

        for _ in range(5):
            leaves = [Tensor(np.ones(2), requires_grad=True) for _ in range(2)]
            with Tape() as tape:
                parts = []
                for leaf in leaves:
                    part = Tensor._result(leaf.data.copy(), True)
                    record_op((leaf,), part, note)
                    parts.append(part)
                loss = ops.sum_(ops.add(*parts))
            backward(tape, loss)
            assert all(np.array_equal(leaf.grad, np.ones(2)) for leaf in leaves)
        assert len(set(map(id, threads))) <= 2
        assert threading.active_count() <= before + 1

    def test_concurrent_callers_share_the_worker(self):
        # Four callers, more threads than cores, hand their head groups to the
        # one worker while the interpreter switches threads often; a group
        # lost in the shared queue leaves a leaf without its gradient.
        calls = []
        for _ in range(4):
            leaves = [Tensor(np.full(3, i + 1.0), requires_grad=True) for i in range(12)]
            with Tape() as tape:
                loss = ops.sum_(ops.concat([ops.mul(leaf, leaf) for leaf in leaves], axis=0))
            calls.append((tape, loss, leaves))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=backward, args=call[:2]) for call in calls]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for _, _, leaves in calls:
            assert all(np.array_equal(leaf.grad, 2.0 * leaf.data) for leaf in leaves)
