"""Transformer building blocks on the autodiff engine.

Every layer registers its parameters in a ParamStore under a caller-chosen
path prefix and initializes them from a seed derived per parameter path, so
initialization is independent of registration order.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ffusion.autodiff import (
    ParamStore,
    Rng,
    Tensor,
    add,
    attention,
    gelu,
    layer_norm,
    linear,
    slice_,
)


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
    """Self-attention over (..., T, d).

    With rows=(start, stop), only those rows are queries, while keys and
    values still come from all T rows. Returns the output (..., Tq, d)
    and the attention weights (..., H, Tq, T) as a plain array, where Tq
    is the number of query rows.
    """

    def __init__(self, store: ParamStore, rng: Rng, path: str, dim: int, heads: int):
        self.heads = heads
        self.query = Linear(store, rng, f"{path}.query", dim, dim)
        # A key bias shifts every logit in a softmax row equally, so it can
        # never influence the weights; omit the inert parameter.
        self.key = Linear(store, rng, f"{path}.key", dim, dim, bias=False)
        self.value = Linear(store, rng, f"{path}.value", dim, dim)
        self.out = Linear(store, rng, f"{path}.out", dim, dim)

    def __call__(self, x: Tensor, rows: Rows = None) -> Tuple[Tensor, np.ndarray]:
        queries = x if rows is None else take_rows(x, rows)
        mixed, weights = attention(self.query(queries), self.key(x), self.value(x),
                                   self.heads)
        return self.out(mixed), weights


class TransformerBlock:
    """Pre-norm block: x + MHA(LN(x)), then x + MLP(LN(x)).

    With rows=(start, stop), only those output rows are computed; every
    row still serves as a key and value. Each output row depends on its
    own input row and on the keys and values alone, so the rows match the
    same rows of a full-sequence call. The attention weights of the block
    are returned alongside the output.
    """

    MLP_RATIO = 4

    def __init__(self, store: ParamStore, rng: Rng, path: str, dim: int, heads: int):
        self.norm_attn = LayerNorm(store, rng, f"{path}.norm_attn", dim)
        self.attn = MultiHeadAttention(store, rng, f"{path}.attn", dim, heads)
        self.norm_mlp = LayerNorm(store, rng, f"{path}.norm_mlp", dim)
        hidden = dim * self.MLP_RATIO
        self.expand = Linear(store, rng, f"{path}.mlp.expand", dim, hidden)
        self.contract = Linear(store, rng, f"{path}.mlp.contract", hidden, dim)

    def __call__(self, x: Tensor, rows: Rows = None) -> Tuple[Tensor, np.ndarray]:
        attended, attn = self.attn(self.norm_attn(x), rows)
        if rows is not None:
            x = take_rows(x, rows)
        x = add(x, attended)
        x = add(x, self.contract(gelu(self.expand(self.norm_mlp(x)))))
        return x, attn
