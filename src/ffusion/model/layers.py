"""Transformer building blocks on the autodiff engine.

Every layer registers its parameters in a ParamStore under a caller-chosen
path prefix and initializes them from a seed derived per parameter path, so
initialization is independent of registration order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ffusion.autodiff import ParamStore, Rng, Tensor, layer_norm, linear, slice_
from ffusion.autodiff.ops import (
    _affine,
    _attention_grad,
    _attention_mix,
    _attention_weights,
    _gelu_cdf,
    _gelu_grad,
    _layer_norm_grad,
    _linear,
    _linear_grad,
    _normalize,
    _result,
)
from ffusion.autodiff.tensor import record_op
from ffusion.errors import ShapeError


def init_param(store: ParamStore, rng: Rng, path: str, shape: tuple,
               fan_in: Optional[int] = None) -> Tensor:
    """Register a parameter initialized uniform(-s, s), s = 1/sqrt(fan_in).

    fan_in=None registers zeros (biases, positional and type embeddings,
    the fused summary token).
    """
    if fan_in is None:
        data = np.zeros(shape)
    else:
        bound = 1.0 / np.sqrt(float(fan_in))
        data = rng.derive(path).uniform(-bound, bound, size=shape)
    return store.register(path, Tensor(data, requires_grad=True))


class Linear:
    """Affine map on the last axis: y = x @ weight + bias."""

    def __init__(self, store: ParamStore, rng: Rng, path: str,
                 fan_in: int, fan_out: int, bias: bool = True):
        self.weight = init_param(store, rng, f"{path}.weight", (fan_in, fan_out), fan_in)
        self.bias = init_param(store, rng, f"{path}.bias", (fan_out,)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm:
    """Last-axis normalization with learned gain and bias."""

    def __init__(self, store: ParamStore, rng: Rng, path: str, dim: int):
        self.gain = store.register(f"{path}.gain", Tensor(np.ones(dim), requires_grad=True))
        self.bias = init_param(store, rng, f"{path}.bias", (dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


Rows = Optional[Tuple[int, int]]


def take_rows(x: Tensor, rows: Tuple[int, int]) -> Tensor:
    """Rows [start, stop) of the token axis of (..., T, d)."""
    lead = tuple(slice(None) for _ in x.shape[:-2])
    return slice_(x, lead + (slice(*rows),))


class MultiHeadAttention:
    """The query, key, value and out projections of a block's self-attention."""

    def __init__(self, store: ParamStore, rng: Rng, path: str, dim: int, heads: int):
        self.heads = heads
        self.query = Linear(store, rng, f"{path}.query", dim, dim)
        # A key bias shifts every logit in a softmax row equally, so it can
        # never influence the weights; omit the inert parameter.
        self.key = Linear(store, rng, f"{path}.key", dim, dim, bias=False)
        self.value = Linear(store, rng, f"{path}.value", dim, dim)
        self.out = Linear(store, rng, f"{path}.out", dim, dim)


class TransformerBlock:
    """Pre-norm block: x + MHA(LN(x)), then x + MLP(LN(x)), as one tape record.

    With rows=(start, stop), only those output rows are computed; every
    row still serves as a key and value. Each output row depends on its
    own input row and on the keys and values alone, so the rows match the
    same rows of a full-sequence call. The attention weights of the block
    (..., H, Tq, T) are returned alongside the output (..., Tq, d).

    The record keeps only what its backward reads: each norm's normalized
    rows and inverse std, q, k, v, the attention weights, and the MLP
    pre-activation with its Gaussian CDF. Backward recomputes the norm
    outputs, the attention mix and the GELU output with the forward's numpy
    calls, so outputs and gradients equal those of the chain of layer_norm,
    linear, attention, add and gelu ops bit for bit; gradients sum in that
    chain's order.
    """

    MLP_RATIO = 4

    def __init__(self, store: ParamStore, rng: Rng, path: str, dim: int, heads: int):
        if heads < 1 or dim % heads:
            raise ShapeError(f"block: width {dim} is not divisible by {heads} heads")
        self.dim = dim
        self.norm_attn = LayerNorm(store, rng, f"{path}.norm_attn", dim)
        self.attn = MultiHeadAttention(store, rng, f"{path}.attn", dim, heads)
        self.norm_mlp = LayerNorm(store, rng, f"{path}.norm_mlp", dim)
        hidden = dim * self.MLP_RATIO
        self.expand = Linear(store, rng, f"{path}.mlp.expand", dim, hidden)
        self.contract = Linear(store, rng, f"{path}.mlp.contract", hidden, dim)

    def __call__(self, x: Tensor, rows: Rows = None) -> Tuple[Tensor, np.ndarray]:
        shape = x.data.shape
        if x.data.ndim < 2 or shape[-1] != self.dim:
            raise ShapeError(f"block: input {shape} is not (..., T, {self.dim})")
        if rows is not None and not 0 <= rows[0] <= rows[1] <= shape[-2]:
            raise ShapeError(f"block: rows {rows} outside {shape[-2]} tokens")
        attn = self.attn
        params = (self.norm_attn.gain, self.norm_attn.bias, attn.query.weight, attn.query.bias,
                  attn.key.weight, attn.value.weight, attn.value.bias, attn.out.weight,
                  attn.out.bias, self.norm_mlp.gain, self.norm_mlp.bias, self.expand.weight,
                  self.expand.bias, self.contract.weight, self.contract.bias)
        g1, b1, wq, bq, wk, wv, bv, wo, bo, g2, b2, we, be, wc, bc = (p.data for p in params)
        picked = (Ellipsis, slice(None) if rows is None else slice(*rows), slice(None))
        xd = x.data

        normed1, inv1 = _normalize(xd)
        h1 = _affine(normed1, g1, b1)
        q = _linear(h1[picked], wq, bq)
        k = _linear(h1, wk)
        v = _linear(h1, wv, bv)
        weights = _attention_weights(q, k, attn.heads)
        x1 = xd[picked] + _linear(_attention_mix(weights, v), wo, bo)
        normed2, inv2 = _normalize(x1)
        pre = _linear(_affine(normed2, g2, b2), we, be)
        cdf = _gelu_cdf(pre)
        inputs = (x,) + params
        out = _result(inputs, x1 + _linear(pre * cdf, wc, bc))

        def backward_fn(g: np.ndarray) -> tuple:
            # Each gradient sums its terms in the op chain's order; an
            # in-place sum into an array made here gives the same bits.
            d, dwc, dbc = _linear_grad(g, pre * cdf, wc)
            d = _gelu_grad(d, pre, cdf)
            d, dwe, dbe = _linear_grad(d, _affine(normed2, g2, b2), we)
            dx1, dg2, db2 = _layer_norm_grad(d, normed2, inv2, g2)
            dx1 += g  # the residual path, then the norm path
            d, dwo, dbo = _linear_grad(dx1, _attention_mix(weights, v), wo)
            dq, dk, dv = _attention_grad(d, q, k, v, weights)
            h1 = _affine(normed1, g1, b1)
            d, dwv, dbv = _linear_grad(dv, h1, wv)
            dh1_k, dwk, _ = _linear_grad(dk, h1, wk, (True, True, False))
            d += dh1_k  # value, key, then query
            dquery, dwq, dbq = _linear_grad(dq, h1[picked], wq)
            d += _pad_rows(dquery, picked, shape)
            del h1, dq, dk, dv, dh1_k, dquery  # before the last norm's temporaries
            dx, dg1, db1 = _layer_norm_grad(d, normed1, inv1, g1)
            dx += _pad_rows(dx1, picked, shape)
            return (dx, dg1, db1, dwq, dbq, dwk, dwv, dbv, dwo, dbo, dg2, db2, dwe, dbe,
                    dwc, dbc)

        record_op(inputs, out, backward_fn)
        return out, weights


def _pad_rows(g: np.ndarray, picked: tuple, shape: tuple) -> np.ndarray:
    """g placed at the picked rows of a zero array of shape, as slice_'s backward
    does; g itself when every row is picked."""
    if g.shape == shape:
        return g
    full = np.zeros(shape, dtype=np.float64)
    full[picked] = g
    return full
