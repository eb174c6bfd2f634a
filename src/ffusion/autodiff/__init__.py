"""From-scratch reverse-mode automatic differentiation on float64 arrays."""

from ffusion.autodiff import ops
from ffusion.autodiff.checkpoint import load_checkpoint, save_checkpoint
from ffusion.autodiff.gradcheck import grad_check, grad_check_components
from ffusion.autodiff.ops import (
    add,
    attention,
    concat,
    cross_entropy,
    embedding_lookup,
    gelu,
    layer_norm,
    linear,
    matmul,
    mean,
    mul,
    relu,
    reshape,
    scale,
    slice_,
    softmax,
    sum_,
    transpose,
)
from ffusion.autodiff.optim import AdamState, adam_step
from ffusion.autodiff.params import ParamStore
from ffusion.autodiff.rng import Rng
from ffusion.autodiff.tensor import Tape, Tensor, backward

__all__ = [
    "AdamState",
    "ParamStore",
    "Rng",
    "Tape",
    "Tensor",
    "adam_step",
    "add",
    "attention",
    "backward",
    "concat",
    "cross_entropy",
    "embedding_lookup",
    "gelu",
    "grad_check",
    "grad_check_components",
    "layer_norm",
    "linear",
    "load_checkpoint",
    "matmul",
    "mean",
    "mul",
    "ops",
    "relu",
    "reshape",
    "save_checkpoint",
    "scale",
    "slice_",
    "softmax",
    "sum_",
    "transpose",
]
