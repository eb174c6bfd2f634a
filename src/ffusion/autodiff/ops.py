"""Differentiable operations over Tensors.

Every operation validates shapes eagerly and raises ShapeError naming the
offending shapes. Broadcasting is deliberately restricted to suffix-aligned
bias addition in `add` and `linear`; everything else requires exact shape
agreement, so silent shape bugs cannot propagate.

A backward rule never writes into its incoming gradient (`add` hands the
same array to both inputs, and `reshape`, `transpose` and `concat` pass
views of it on) nor into an array its forward returned. `matmul`, `linear`
and `attention` return None for an operand that does not require a gradient.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from ffusion.autodiff.tensor import Array, Tensor, record_op
from ffusion.errors import MaskError, ShapeError

# GELU's tanh form (Hendrycks & Gimpel, arXiv:1606.08415):
# Phi(x) ~ 0.5 * (1 + tanh(c * (x + a * x**3))), within 1.8e-4 of the Gaussian CDF.
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_CA = _GELU_C * 0.044715
_GELU_CLIP = 20.0  # Phi is exactly 0 or 1 in float64 beyond |x| > 7.5

CE_PROB_FLOOR = 1e-12
LAYER_NORM_EPS = 1e-5  # added to the variance before the square root


def _result(inputs: Sequence[Tensor], arr: Array) -> Tensor:
    req = any(t.requires_grad for t in inputs)
    return Tensor._result(arr, req)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition; b may be a bias aligned to the trailing axes of a."""
    ashape, bshape = a.data.shape, b.data.shape
    if ashape == bshape:
        def backward_fn(g: Array) -> tuple:
            return g, g
    elif len(bshape) < len(ashape) and bshape == ashape[len(ashape) - len(bshape):]:
        lead = tuple(range(len(ashape) - len(bshape)))

        def backward_fn(g: Array) -> tuple:
            return g, g.sum(axis=lead)
    else:
        raise ShapeError(f"add: shapes {ashape} and {bshape} are not suffix-aligned")
    out = _result((a, b), a.data + b.data)
    record_op((a, b), out, backward_fn)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")
    out = _result((a, b), a.data * b.data)

    def backward_fn(g: Array) -> tuple:
        return g * b.data, g * a.data

    record_op((a, b), out, backward_fn)
    return out


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a finite python scalar."""
    f = float(factor)
    if not math.isfinite(f):
        raise ValueError(f"scale: factor must be finite, got {factor!r}")
    out = _result((x,), x.data * f)

    def backward_fn(g: Array) -> tuple:
        return (g * f,)

    record_op((x,), out, backward_fn)
    return out


def _gelu_cdf(x: Array) -> Array:
    """Phi(x) ~ 0.5 * (1 + tanh(x * (c + c * a * x * x))), the tanh form of the
    Gaussian CDF that GELU multiplies x by, in one new array."""
    t = x * x
    t *= _GELU_CA
    t += _GELU_C
    t *= x
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def _gelu_grad(g: Array, x: Array, cdf: Array) -> Array:
    """g * (cdf + x * 2 cdf (1 - cdf) * c * (1 + 3 a x^2)), the derivative of
    x * cdf, since 1 - tanh^2 = 4 cdf (1 - cdf). The polynomial reads x clipped
    to +-20, where cdf (1 - cdf) is already 0, so a huge x cannot make it inf
    and the product NaN."""
    d = 1.0 - cdf
    d *= cdf
    d *= x
    p = np.clip(x, -_GELU_CLIP, _GELU_CLIP)
    p *= p
    p *= 6.0 * _GELU_CA
    p += 2.0 * _GELU_C
    d *= p
    d += cdf
    d *= g
    return d


def gelu(x: Tensor) -> Tensor:
    """GELU in its tanh form: x * Phi(x), Phi the tanh approximation of the
    Gaussian CDF."""
    xd = x.data
    cdf = _gelu_cdf(xd)
    out = _result((x,), xd * cdf)

    def backward_fn(g: Array) -> tuple:
        return (_gelu_grad(g, xd, cdf),)

    record_op((x,), out, backward_fn)
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    target = tuple(int(s) for s in shape)
    try:
        arr = x.data.reshape(target)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {x.data.shape} as {target}") from exc
    out = _result((x,), arr)
    src_shape = x.data.shape

    def backward_fn(g: Array) -> tuple:
        return (g.reshape(src_shape),)

    record_op((x,), out, backward_fn)
    return out


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    perm = tuple(int(a) for a in axes)
    if sorted(perm) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose: axes {perm} are not a permutation for ndim {x.data.ndim}")
    out = _result((x,), np.transpose(x.data, perm))
    inverse = tuple(np.argsort(perm))

    def backward_fn(g: Array) -> tuple:
        return (np.transpose(g, inverse),)

    record_op((x,), out, backward_fn)
    return out


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along an existing axis; all other axes must agree."""
    if len(parts) == 0:
        raise ShapeError("concat: need at least one tensor")
    ndim = parts[0].data.ndim
    if not (-ndim <= axis < ndim):
        raise ShapeError(f"concat: axis {axis} out of range for ndim {ndim}")
    ax = axis % ndim
    base = list(parts[0].data.shape)
    for p in parts[1:]:
        other = list(p.data.shape)
        if len(other) != ndim or other[:ax] + other[ax + 1:] != base[:ax] + base[ax + 1:]:
            raise ShapeError(
                f"concat: shape {p.data.shape} incompatible with {parts[0].data.shape} on axis {ax}"
            )
    sizes = [p.data.shape[ax] for p in parts]
    out = _result(tuple(parts), np.concatenate([p.data for p in parts], axis=ax))

    def backward_fn(g: Array) -> tuple:
        grads = []
        start = 0
        for s in sizes:
            idx = [slice(None)] * g.ndim
            idx[ax] = slice(start, start + s)
            grads.append(g[tuple(idx)])
            start += s
        return tuple(grads)

    record_op(tuple(parts), out, backward_fn)
    return out


def slice_(x: Tensor, index: Sequence[slice]) -> Tensor:
    """Contiguous slicing with explicit bounds checking (unit steps only)."""
    if len(index) > x.data.ndim:
        raise ShapeError(f"slice: {len(index)} slices for ndim {x.data.ndim}")
    norm = []
    for ax, sl in enumerate(index):
        if not isinstance(sl, slice) or sl.step not in (None, 1):
            raise ShapeError("slice: only unit-step slice objects are supported")
        dim = x.data.shape[ax]
        start = 0 if sl.start is None else int(sl.start)
        stop = dim if sl.stop is None else int(sl.stop)
        if start < 0 or stop > dim or start > stop:
            raise ShapeError(f"slice: bounds [{start}:{stop}] outside axis {ax} of size {dim}")
        norm.append(slice(start, stop))
    key = tuple(norm)
    out = _result((x,), x.data[key])
    src_shape = x.data.shape

    def backward_fn(g: Array) -> tuple:
        full = np.zeros(src_shape, dtype=np.float64)
        full[key] = g
        return (full,)

    record_op((x,), out, backward_fn)
    return out


def _normalize_axes(axis, ndim: int) -> Optional[tuple]:
    if axis is None:
        return None
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    norm = []
    for a in axes:
        if not (-ndim <= a < ndim):
            raise ShapeError(f"reduction axis {a} out of range for ndim {ndim}")
        norm.append(a % ndim)
    if len(set(norm)) != len(norm):
        raise ShapeError(f"duplicate reduction axes {axes}")
    return tuple(sorted(norm))


def _expand_reduced(g: Array, axes: Optional[tuple], keepdims: bool, shape: tuple) -> Array:
    if axes is not None and not keepdims:
        for a in axes:
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def mean(x: Tensor, axis: Union[int, Sequence[int], None] = None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, x.data.ndim)
    arr = np.asarray(x.data.mean(axis=axes, keepdims=keepdims))
    count = x.data.size // max(arr.size, 1)
    out = _result((x,), arr)
    src_shape = x.data.shape

    def backward_fn(g: Array) -> tuple:
        return (np.asarray(_expand_reduced(g, axes, keepdims, src_shape)) / count,)

    record_op((x,), out, backward_fn)
    return out


def sum_(x: Tensor, axis: Union[int, Sequence[int], None] = None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, x.data.ndim)
    arr = np.asarray(x.data.sum(axis=axes, keepdims=keepdims))
    out = _result((x,), arr)
    src_shape = x.data.shape

    def backward_fn(g: Array) -> tuple:
        return (np.array(_expand_reduced(g, axes, keepdims, src_shape)),)

    record_op((x,), out, backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports (..., m, k) @ (k, n) and matching-batch operands."""
    ashape, bshape = a.data.shape, b.data.shape
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {ashape} and {bshape}")
    if ashape[-1] != bshape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {ashape} and {bshape}")
    if b.data.ndim > 2 and ashape[:-2] != bshape[:-2]:
        raise ShapeError(f"matmul: batch dimensions differ for {ashape} and {bshape}")
    out = _result((a, b), np.matmul(a.data, b.data))
    ad, bd = a.data, b.data

    def backward_fn(g: Array) -> tuple:
        da = np.matmul(g, np.swapaxes(bd, -1, -2)) if a.requires_grad else None
        return da, _matmul_right_grad(ad, bd, g) if b.requires_grad else None

    record_op((a, b), out, backward_fn)
    return out


def _matmul_right_grad(ad: Array, bd: Array, g: Array) -> Array:
    """d(a @ b)/db; a shared (k, n) right operand sums over every leading axis."""
    if bd.ndim == 2 and ad.ndim > 2:
        return np.matmul(ad.reshape(-1, ad.shape[-1]).T, g.reshape(-1, g.shape[-1]))
    return np.matmul(np.swapaxes(ad, -1, -2), g)


def _linear(x: Array, weight: Array, bias: Optional[Array] = None) -> Array:
    """x @ weight + bias, the bias added in place."""
    arr = np.matmul(x, weight)
    if bias is not None:
        arr += bias
    return arr


def _linear_grad(g: Array, x: Array, weight: Array,
                 need: tuple = (True, True, True)) -> tuple:
    """(dx, dweight, dbias) of x @ weight + bias; None where need says no."""
    dx = np.matmul(g, weight.T) if need[0] else None
    dw = _matmul_right_grad(x, weight, g) if need[1] else None
    db = g.sum(axis=tuple(range(g.ndim - 1))) if need[2] else None
    return dx, dw, db


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map x @ weight + bias on the last axis, as one tape record.

    x is (..., k), weight (k, n) and bias (n,). Forward and backward make
    the same numpy calls as matmul followed by add, so results match that
    chain bit for bit.
    """
    xshape, wshape = x.data.shape, weight.data.shape
    if x.data.ndim < 2 or weight.data.ndim != 2 or xshape[-1] != wshape[0]:
        raise ShapeError(f"linear: cannot map {xshape} through weight {wshape}")
    if bias is not None and bias.data.shape != wshape[1:]:
        raise ShapeError(f"linear: bias {bias.data.shape} does not match weight {wshape}")
    inputs = (x, weight) if bias is None else (x, weight, bias)
    out = _result(inputs, _linear(x.data, weight.data, None if bias is None else bias.data))
    xd, wd = x.data, weight.data

    def backward_fn(g: Array) -> tuple:
        dx, dw, db = _linear_grad(g, xd, wd, (x.requires_grad, weight.requires_grad,
                                              bias is not None and bias.requires_grad))
        return (dx, dw) if bias is None else (dx, dw, db)

    record_op(inputs, out, backward_fn)
    return out


def _softmax_rows(logits: Array, axis: int, out: Optional[Array] = None) -> Array:
    """exp(logits - row max) normalized along axis, written into out if given."""
    top = logits.max(axis=axis, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise MaskError("softmax: non-finite logits (a row has no finite maximum)")
    e = np.subtract(logits, top, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_grad(weights: Array, g: Array, axis: int) -> Array:
    """weights * (g - sum(g * weights)) along axis, in one new array."""
    d = g * weights
    inner = d.sum(axis=axis, keepdims=True)
    np.subtract(g, inner, out=d)
    d *= weights
    return d


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax; -inf logits give exactly zero probability mass.

    A row without a finite maximum (all -inf, or holding NaN or +inf) is
    rejected: its logits are non-finite and cannot be normalized.
    """
    ndim = x.data.ndim
    if not (-ndim <= axis < ndim):
        raise ShapeError(f"softmax: axis {axis} out of range for ndim {ndim}")
    ax = axis % ndim
    arr = _softmax_rows(x.data, ax)
    out = _result((x,), arr)

    def backward_fn(g: Array) -> tuple:
        return (_softmax_grad(arr, g, ax),)

    record_op((x,), out, backward_fn)
    return out


def _head_axes(ndim: int) -> tuple:
    # Swaps the token and head axes of an (..., T, H, hd) or (..., H, T, hd) array.
    lead = ndim - 3
    return tuple(range(lead)) + (lead + 1, lead, lead + 2)


def _split_heads(x: Array, heads: int) -> Array:
    """(..., T, d) -> (..., H, T, d / H), a view when x is contiguous."""
    x = x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))
    return np.transpose(x, _head_axes(x.ndim))


def _merge_heads(x: Array) -> Array:
    """(..., H, T, hd) -> (..., T, H * hd)."""
    x = np.transpose(x, _head_axes(x.ndim))
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def _attention_weights(q: Array, k: Array, heads: int) -> Array:
    """softmax(q @ k^T / sqrt(hd)) per head, (..., H, Tq, T)."""
    qh = _split_heads(q, heads)
    weights = np.matmul(qh, np.swapaxes(_split_heads(k, heads), -1, -2))
    weights *= 1.0 / math.sqrt(qh.shape[-1])
    _softmax_rows(weights, -1, out=weights)
    return weights


def _attention_mix(weights: Array, v: Array) -> Array:
    """weights @ v per head, merged back to (..., Tq, d)."""
    return _merge_heads(np.matmul(weights, _split_heads(v, weights.shape[-3])))


def _attention_grad(g: Array, q: Array, k: Array, v: Array, weights: Array,
                    need: tuple = (True, True, True)) -> tuple:
    """(dq, dk, dv) of _attention_mix(_attention_weights(q, k), v) for its
    output gradient g; None where need says no."""
    heads = weights.shape[-3]
    g = _split_heads(g, heads)
    dv = _merge_heads(np.matmul(np.swapaxes(weights, -1, -2), g)) if need[2] else None
    if not (need[0] or need[1]):
        return None, None, dv
    vt = np.swapaxes(_split_heads(v, heads), -1, -2)
    dlogits = _softmax_grad(weights, np.matmul(g, vt), -1)
    dlogits *= 1.0 / math.sqrt(g.shape[-1])
    dq = _merge_heads(np.matmul(dlogits, _split_heads(k, heads))) if need[0] else None
    dk = None
    if need[1]:
        qt = np.swapaxes(_split_heads(q, heads), -1, -2)
        dk = _merge_heads(np.swapaxes(np.matmul(qt, dlogits), -1, -2))
    return dq, dk, dv


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple:
    """Multi-head scaled dot-product attention, as one tape record.

    q is (..., Tq, d) and k, v are (..., T, d); Tq may differ from T, as
    when only some rows are queries. Each of the heads attends with its own
    d / heads columns: the op views q, k and v as (..., H, T, hd), computes
    softmax(q @ k^T / sqrt(hd)) @ v per head and merges the heads back to
    (..., Tq, d). Forward and backward make the numpy calls of the reshape,
    transpose, matmul, scale, softmax, matmul, transpose, reshape chain in
    the same order, so results match that chain bit for bit. Returns the
    merged output and the attention weights (..., H, Tq, T) as a plain
    array; like softmax, rejects a row of non-finite logits with MaskError.
    """
    shape = k.data.shape
    if (q.data.ndim < 2 or k.data.ndim != q.data.ndim or v.data.shape != shape
            or q.data.shape[:-2] + q.data.shape[-1:] != shape[:-2] + shape[-1:]):
        raise ShapeError(
            f"attention: q {q.data.shape}, k {shape} and v {v.data.shape} must agree "
            "on every axis but the query rows"
        )
    d = shape[-1]
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} is not divisible by {heads} heads")
    qd, kd, vd = q.data, k.data, v.data
    weights = _attention_weights(qd, kd, heads)
    out = _result((q, k, v), _attention_mix(weights, vd))

    def backward_fn(g: Array) -> tuple:
        return _attention_grad(g, qd, kd, vd, weights,
                               (q.requires_grad, k.requires_grad, v.requires_grad))

    record_op((q, k, v), out, backward_fn)
    return out, weights


def _normalize(x: Array) -> tuple:
    """x's last axis at zero mean and unit variance, and 1 / its std."""
    normed = x - x.mean(axis=-1, keepdims=True)
    inv = (normed * normed).mean(axis=-1, keepdims=True)
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    normed *= inv
    return normed, inv


def _affine(normed: Array, gain: Array, bias: Array) -> Array:
    """normed * gain + bias, the layer norm's output."""
    arr = normed * gain
    arr += bias
    return arr


def _layer_norm_grad(g: Array, normed: Array, inv: Array, gain: Array) -> tuple:
    """(dx, dgain, dbias) of the layer norm _affine(normed, gain, bias) of x,
    for its output gradient g."""
    # dx = inv * (dnormed - mean(dnormed) - normed * mean(dnormed * normed))
    # with dnormed = g * gain, in two temporaries.
    n = normed.shape[-1]
    t = g * normed
    dgain = t.reshape(-1, n).sum(axis=0)
    dbias = g.reshape(-1, n).sum(axis=0)
    dx = g * gain
    m1 = dx.mean(axis=-1, keepdims=True)
    np.multiply(dx, normed, out=t)
    m2 = t.mean(axis=-1, keepdims=True)
    dx -= m1
    np.multiply(normed, m2, out=t)
    dx -= t
    dx *= inv
    return dx, dgain, dbias


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    n = x.data.shape[-1] if x.data.ndim else 0
    if n < 1:
        raise ShapeError(f"layer_norm: last axis must be non-empty, got shape {x.data.shape}")
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain {gain.data.shape} and bias {bias.data.shape} must be ({n},)"
        )
    normed, inv = _normalize(x.data)
    out = _result((x, gain, bias), _affine(normed, gain.data, bias.data))
    gd = gain.data

    def backward_fn(g: Array) -> tuple:
        return _layer_norm_grad(g, normed, inv, gd)

    record_op((x, gain, bias), out, backward_fn)
    return out


def embedding_lookup(table: Tensor, ids: Array) -> Tensor:
    """Gather rows of a (V, d) table by integer id; grads scatter-add back."""
    idx = np.asarray(ids)
    if idx.size == 0:
        raise ShapeError("embedding_lookup: empty id array")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"embedding_lookup: ids must be integers, got dtype {idx.dtype}")
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-d, got {table.data.shape}")
    vocab, dim = table.data.shape
    lo, hi = int(idx.min()), int(idx.max())
    if lo < 0 or hi >= vocab:
        raise IndexError(f"embedding_lookup: id range [{lo}, {hi}] outside table of {vocab} rows")
    out = _result((table,), table.data[idx])
    tshape = table.data.shape

    def backward_fn(g: Array) -> tuple:
        dtable = np.zeros(tshape, dtype=np.float64)
        np.add.at(dtable, idx.reshape(-1), g.reshape(-1, dim))
        return (dtable,)

    record_op((table,), out, backward_fn)
    return out


def cross_entropy(probs: Tensor, labels: Array) -> Tensor:
    """Mean negative log-likelihood of integer labels under given probabilities.

    probs holds distributions over the last axis; labels index into it and
    must match the leading shape. Probabilities are floored at CE_PROB_FLOOR
    inside the log only; the gradient is zero in the floored region.
    """
    lab = np.asarray(labels)
    if not np.issubdtype(lab.dtype, np.integer):
        raise ShapeError(f"cross_entropy: labels must be integers, got dtype {lab.dtype}")
    if probs.data.ndim < 1:
        raise ShapeError("cross_entropy: probabilities must have a class axis")
    classes = probs.data.shape[-1]
    if lab.shape != probs.data.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: label shape {lab.shape} does not match {probs.data.shape[:-1]}"
        )
    lo = int(lab.min()) if lab.size else 0
    hi = int(lab.max()) if lab.size else -1
    if lab.size == 0:
        raise ShapeError("cross_entropy: empty label array")
    if lo < 0 or hi >= classes:
        raise IndexError(f"cross_entropy: label range [{lo}, {hi}] outside {classes} classes")
    flat_p = probs.data.reshape(-1, classes)
    flat_l = lab.reshape(-1)
    n = flat_l.size
    rows = np.arange(n)
    picked = flat_p[rows, flat_l]
    floored = np.maximum(picked, CE_PROB_FLOOR)
    out_arr = np.asarray((-np.log(floored)).mean())
    out = _result((probs,), out_arr)
    pshape = probs.data.shape

    def backward_fn(g: Array) -> tuple:
        s = float(g)
        dflat = np.zeros_like(flat_p)
        dflat[rows, flat_l] = np.where(picked >= CE_PROB_FLOOR, -s / (n * floored), 0.0)
        return (dflat.reshape(pshape),)

    record_op((probs,), out, backward_fn)
    return out
