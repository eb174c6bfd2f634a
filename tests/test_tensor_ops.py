"""Forward-value oracles and error behavior for the tensor operation suite."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ffusion.autodiff import Rng, Tape, Tensor, backward, ops
from ffusion.errors import MaskError, ShapeError


class TestTensorBasics:
    def test_stores_float64_row_major(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.shape == (2, 2)
        assert t.size == 4

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor([1.0, float("nan")])
        with pytest.raises(ValueError):
            Tensor([1.0, float("inf")])

    def test_constant_permits_neg_inf_for_masks(self):
        t = Tensor.constant([0.0, float("-inf")])
        assert t.data[1] == float("-inf")
        assert not t.requires_grad

    def test_item_requires_scalar(self):
        assert Tensor(3.5).item() == 3.5
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()


class TestForwardOracles:
    def test_matmul_hand_value(self):
        # [[1,2],[3,4]] @ [[5],[6]] = [[17],[39]]
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        out = ops.matmul(a, b)
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_softmax_hand_value(self):
        # softmax([0, ln 2]) = [1/3, 2/3]
        out = ops.softmax(Tensor([0.0, math.log(2.0)]), axis=-1)
        assert np.allclose(out.data, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = Rng(11)
        x = Tensor(rng.normal((5, 7)) * 3.0)
        out = ops.softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out.data >= 0.0)

    def test_softmax_neg_inf_gives_exact_zero(self):
        x = Tensor.constant([1.0, float("-inf"), 2.0])
        out = ops.softmax(x, axis=-1)
        assert out.data[1] == 0.0

    def test_softmax_all_masked_row_rejected(self):
        x = Tensor.constant([[float("-inf"), float("-inf")]])
        with pytest.raises(MaskError):
            ops.softmax(x, axis=-1)

    def test_attention_non_finite_logits_rejected(self):
        q = Tensor.constant([[float("inf"), 0.0], [1.0, 0.0]])
        k = Tensor.constant([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(MaskError):
            ops.attention(q, k, Tensor(np.ones((2, 2))), 1)

    def test_layer_norm_hand_value(self):
        # [1, 3]: mean 2, var 1 -> close to [-1, 1] up to the eps guard
        gain = Tensor(np.ones(2))
        bias = Tensor(np.zeros(2))
        out = ops.layer_norm(Tensor([1.0, 3.0]), gain, bias)
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        assert np.allclose(out.data, [-expected, expected], atol=1e-12)

    def test_layer_norm_normalizes_rows(self):
        rng = Rng(3)
        x = Tensor(rng.normal((4, 16)) * 5.0 + 2.0)
        out = ops.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-4)

    def test_gelu_fixed_points(self):
        out = ops.gelu(Tensor([0.0, 100.0, -100.0]))
        assert out.data[0] == 0.0
        assert np.isclose(out.data[1], 100.0)
        assert np.isclose(out.data[2], 0.0, atol=1e-12)

    @given(st.floats(-20.0, 20.0))
    @example(-2.59214)  # the CDF's largest error
    @example(2.69894)  # GELU's largest error
    def test_gelu_tanh_form_is_near_the_exact_gelu(self, x):
        # The exact Phi from the stdlib's erfc: the tanh form stays within
        # 1.79e-4 of it, and x * Phi within 4.73e-4 of x times it.
        exact = 0.5 * math.erfc(-x / math.sqrt(2.0))
        assert abs(ops._gelu_cdf(np.array([x]))[0] - exact) <= 2e-4
        assert abs(ops.gelu(Tensor([x])).data[0] - x * exact) <= 5e-4

    def test_cross_entropy_uniform_is_log_classes(self):
        probs = Tensor(np.full((4,), 0.25))
        loss = ops.cross_entropy(probs, np.array(2))
        assert np.isclose(loss.item(), math.log(4.0), atol=1e-12)

    def test_cross_entropy_batch_mean(self):
        probs = Tensor([[0.5, 0.5], [0.25, 0.75]])
        loss = ops.cross_entropy(probs, np.array([0, 1]))
        expected = 0.5 * (math.log(2.0) + math.log(4.0 / 3.0))
        assert np.isclose(loss.item(), expected, atol=1e-12)

    def test_embedding_lookup_gathers_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ops.embedding_lookup(table, np.array([2, 0]))
        assert np.array_equal(out.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])

    def test_mean_and_sum(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert ops.mean(x).item() == 2.5
        assert ops.sum_(x).item() == 10.0
        assert np.array_equal(ops.mean(x, axis=0).data, [2.0, 3.0])
        assert np.array_equal(ops.sum_(x, axis=1).data, [3.0, 7.0])

    def test_concat_and_slice_roundtrip(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(6.0, 12.0).reshape(2, 3))
        cat = ops.concat([a, b], axis=1)
        assert cat.shape == (2, 6)
        back = ops.slice_(cat, (slice(None), slice(3, 6)))
        assert np.array_equal(back.data, b.data)

    def test_add_suffix_bias(self):
        x = Tensor(np.zeros((2, 3, 4)))
        bias = Tensor(np.arange(4.0))
        out = ops.add(x, bias)
        assert np.array_equal(out.data[1, 2], np.arange(4.0))
        table = Tensor(np.ones((3, 4)))
        out2 = ops.add(x, table)
        assert np.all(out2.data == 1.0)


class TestShapeErrors:
    def test_matmul_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(err.value)

    def test_add_rejects_non_suffix(self):
        with pytest.raises(ShapeError):
            ops.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))

    def test_mul_rejects_mismatch(self):
        with pytest.raises(ShapeError):
            ops.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_reshape_rejects_bad_size(self):
        with pytest.raises(ShapeError):
            ops.reshape(Tensor(np.zeros(6)), (4, 2))

    def test_slice_rejects_out_of_bounds(self):
        with pytest.raises(ShapeError):
            ops.slice_(Tensor(np.zeros((2, 3))), (slice(0, 3),))

    def test_transpose_rejects_bad_axes(self):
        with pytest.raises(ShapeError):
            ops.transpose(Tensor(np.zeros((2, 3))), (0, 0))

    def test_embedding_rejects_out_of_range(self):
        table = Tensor(np.zeros((4, 2)))
        with pytest.raises(IndexError):
            ops.embedding_lookup(table, np.array([4]))
        with pytest.raises(IndexError):
            ops.embedding_lookup(table, np.array([-1]))

    def test_cross_entropy_rejects_bad_label(self):
        probs = Tensor(np.full((4,), 0.25))
        with pytest.raises(IndexError):
            ops.cross_entropy(probs, np.array(4))

    def test_linear_rejects_mismatch(self):
        with pytest.raises(ShapeError):
            ops.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
        with pytest.raises(ShapeError):
            ops.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))), Tensor(np.ones(4)))

    def test_attention_rejects_mismatch(self):
        with pytest.raises(ShapeError):
            ops.attention(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))),
                          Tensor(np.ones((2, 4))), 2)
        # Query rows may differ from the keys; the width and the leading
        # axes may not, and the heads must divide the width.
        keys = Tensor(np.ones((2, 5, 4)))
        queries = Tensor(np.ones((2, 3, 4)))
        assert ops.attention(queries, keys, keys, 2)[1].shape == (2, 2, 3, 5)
        for q_shape in ((2, 3, 2), (1, 3, 4)):
            with pytest.raises(ShapeError):
                ops.attention(Tensor(np.ones(q_shape)), keys, keys, 2)
        for heads in (0, 3, 8):
            with pytest.raises(ShapeError, match="not divisible"):
                ops.attention(queries, keys, keys, heads)

    def test_layer_norm_rejects_bad_gain(self):
        x = Tensor(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            ops.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestTapeMechanics:
    def test_gradient_accumulates_over_reuse(self):
        # y = x*x + x*x uses x twice via separate ops: dy/dx = 4x
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            y = ops.add(ops.mul(x, x), ops.mul(x, x))
            loss = ops.sum_(y)
        backward(tape, loss)
        assert np.allclose(x.grad, [12.0])

    def test_quadratic_gradient_hand_value(self):
        # f(x) = sum(x*x), x = [1, 2] -> grad [2, 4]
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_(ops.mul(x, x))
        backward(tape, loss)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_backward_writes_leaf_gradients_only(self):
        # loss = sum((w*x)^2) on dyadic values, so the leaf gradients 2*h*x and
        # 2*h*w are exact; the intermediates h and loss keep no gradient.
        w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        x = Tensor([0.5, 4.0, -1.5], requires_grad=True)
        with Tape() as tape:
            h = ops.mul(w, x)
            loss = ops.sum_(ops.mul(h, h))
        backward(tape, loss)
        assert all(rec.output.grad is None for rec in tape.records)
        assert np.array_equal(w.grad, 2.0 * h.data * x.data)
        assert np.array_equal(x.grad, 2.0 * h.data * w.data)

    def test_unused_parameter_reads_as_zero_grad(self):
        from ffusion.autodiff import ParamStore

        store = ParamStore()
        used = store.register("used", Tensor([2.0], requires_grad=True))
        store.register("unused", Tensor([5.0], requires_grad=True))
        with Tape() as tape:
            loss = ops.sum_(ops.mul(used, used))
        backward(tape, loss)
        grads = store.gradients()
        assert np.array_equal(grads["used"], [4.0])
        assert np.array_equal(grads["unused"], [0.0])

    def test_non_scalar_loss_rejected(self):
        from ffusion.errors import GradientError

        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ops.mul(x, x)
        with pytest.raises(GradientError):
            backward(tape, y)

    def test_no_tape_records_without_context(self):
        x = Tensor([1.0], requires_grad=True)
        tape = Tape()
        with tape:
            ops.mul(x, x)
        after = ops.mul(x, x)
        assert len(tape.records) == 1
        assert after.grad is None

    def test_constants_produce_no_records(self):
        a = Tensor([1.0])
        b = Tensor([2.0])
        with Tape() as tape:
            ops.mul(a, b)
        assert len(tape.records) == 0


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _leaf(values, requires_grad=True):
    return Tensor(values, requires_grad=True) if requires_grad else Tensor.constant(values)


def _run_linear(fused, xs, ws, bs, out_w, x_grad):
    x, w = _leaf(xs, x_grad), _leaf(ws)
    b = None if bs is None else _leaf(bs)
    with Tape() as tape:
        if fused:
            y = ops.linear(x, w, b)
        else:
            y = ops.matmul(x, w)
            y = y if b is None else ops.add(y, b)
        loss = ops.sum_(ops.mul(y, Tensor(out_w)))
    backward(tape, loss)
    return [y.data, x.grad, w.grad] + ([] if b is None else [b.grad])


def _run_attention(fused, qs, ks, vs, out_w, heads):
    # The reference splits the heads off with reshape and transpose, runs
    # the attention chain per head, and merges them back the same way.
    n = qs.ndim + 1
    swap = tuple(range(n - 3)) + (n - 2, n - 3, n - 1)
    hd = qs.shape[-1] // heads
    leaves = [_leaf(a) for a in (qs, ks, vs)]
    with Tape() as tape:
        if fused:
            out, weights = ops.attention(*leaves, heads)
        else:
            q, k, v = (ops.transpose(ops.reshape(t, t.shape[:-1] + (heads, hd)), swap)
                       for t in leaves)
            kt = ops.transpose(k, tuple(range(n - 2)) + (n - 1, n - 2))
            logits = ops.scale(ops.matmul(q, kt), 1.0 / np.sqrt(hd))
            attn = ops.softmax(logits, axis=-1)
            out, weights = ops.transpose(ops.matmul(attn, v), swap), attn.data
            out = ops.reshape(out, qs.shape)
        loss = ops.sum_(ops.mul(out, Tensor(out_w)))
    backward(tape, loss)
    return [out.data, weights] + [t.grad for t in leaves]


class TestFusedOps:
    """linear and attention against the chains of ops they replace."""

    @given(lead=st.lists(st.integers(1, 4), max_size=2), rows=st.integers(1, 9),
           k=st.integers(1, 6), n=st.integers(1, 6), bias=st.booleans(),
           x_grad=st.booleans(), seed=st.integers(0, 2**16))
    def test_linear_equals_matmul_add_bitwise(self, lead, rows, k, n, bias, x_grad, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(lead) + (rows, k)
        xs, ws = rng.normal(size=shape), rng.normal(size=(k, n))
        bs = rng.normal(size=n) if bias else None
        out_w = rng.normal(size=shape[:-1] + (n,))
        fused = _run_linear(True, xs, ws, bs, out_w, x_grad)
        chain = _run_linear(False, xs, ws, bs, out_w, x_grad)
        assert all(_same_bits(a, b) for a, b in zip(fused, chain))

    @given(lead=st.lists(st.integers(1, 3), max_size=1), seq=st.integers(1, 9),
           skipped=st.integers(0, 8), heads=st.integers(1, 3),
           head_dim=st.integers(1, 8), seed=st.integers(0, 2**16))
    def test_attention_equals_chain_bitwise(self, lead, seq, skipped, heads, head_dim, seed):
        # Up to `skipped` rows fewer queries than keys, as in the last
        # fusion block.
        rng = np.random.default_rng(seed)
        rows = max(1, seq - skipped)
        keys = tuple(lead) + (seq, heads * head_dim)
        queries = tuple(lead) + (rows, heads * head_dim)
        qs, out_w = (rng.normal(size=queries) * 2.0 for _ in range(2))
        ks, vs = (rng.normal(size=keys) * 2.0 for _ in range(2))
        fused = _run_attention(True, qs, ks, vs, out_w, heads)
        chain = _run_attention(False, qs, ks, vs, out_w, heads)
        assert all(_same_bits(a, b) for a, b in zip(fused, chain))

    @pytest.mark.parametrize("op", ["gelu", "layer_norm", "softmax", "linear",
                                    "attention", "matmul"])
    def test_backward_leaves_incoming_gradient_intact(self, op):
        # add hands the same gradient array to both of its inputs, so a rule
        # that wrote into its incoming gradient would corrupt the other
        # input's; the reference runs each consumer on its own loss.
        rng = np.random.default_rng(3)
        gain, bias = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))
        weight = Tensor(rng.normal(size=(6, 6)))
        apply = {
            "gelu": ops.gelu,
            "layer_norm": lambda t: ops.layer_norm(t, gain, bias),
            "softmax": lambda t: ops.softmax(t, axis=-1),
            "linear": lambda t: ops.linear(t, weight, bias),
            "attention": lambda t: ops.attention(t, t, t, 2)[0],
            "matmul": lambda t: ops.matmul(t, weight),
        }[op]
        values = [rng.normal(size=(2, 5, 6)) for _ in range(2)]
        out_w = Tensor(rng.normal(size=(2, 5, 6)))

        shared = [Tensor(v, requires_grad=True) for v in values]
        with Tape() as tape:
            outs = [apply(t) for t in shared]
            loss = ops.sum_(ops.mul(ops.add(*outs), out_w))
        before = [o.data.copy() for o in outs]
        backward(tape, loss)
        assert all(_same_bits(o.data, b) for o, b in zip(outs, before))

        for t, v in zip(shared, values):
            alone = Tensor(v.copy(), requires_grad=True)
            with Tape() as tape:
                solo = ops.sum_(ops.mul(apply(alone), out_w))
            backward(tape, solo)
            assert _same_bits(t.grad, alone.grad)

    def test_attention_weights_untouched_by_backward(self):
        rng = np.random.default_rng(4)
        q, k, v = (Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True) for _ in range(3))
        with Tape() as tape:
            out, weights = ops.attention(q, k, v, 3)
            loss = ops.sum_(ops.mul(out, Tensor(rng.normal(size=(2, 4, 3)))))
        before = weights.copy()
        backward(tape, loss)
        assert _same_bits(weights, before)

    def test_constant_operand_gets_no_gradient(self):
        rng = np.random.default_rng(5)
        const = Tensor.constant(rng.normal(size=(2, 3, 4)))
        weight = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        bias = Tensor(rng.normal(size=4), requires_grad=True)
        param = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            ops.linear(const, weight, bias)
            ops.matmul(const, weight)
            ops.matmul(param, Tensor.constant(np.eye(4)))
            ops.attention(const, const, param, 2)
        g = np.ones((2, 3, 4))
        linear_grads, left_grads, right_grads, attention_grads = (
            rec.backward_fn(g) for rec in tape.records)
        assert linear_grads[0] is None and linear_grads[1] is not None
        assert left_grads[0] is None and left_grads[1] is not None
        assert right_grads[0] is not None and right_grads[1] is None
        assert attention_grads[:2] == (None, None) and attention_grads[2] is not None
