"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ffusion.autodiff.params import ParamStore
from ffusion.autodiff.tensor import Tape, Tensor, backward
from ffusion.errors import GradientError

EPS = 1e-6  # central-difference step


def relative_error(g_auto: np.ndarray, g_fd: np.ndarray) -> np.ndarray:
    """|g_auto - g_fd| / max(1e-8, |g_auto| + |g_fd|), elementwise."""
    return np.abs(g_auto - g_fd) / np.maximum(1e-8, np.abs(g_auto) + np.abs(g_fd))


def grad_check(fn: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between the tape gradient and central differences.

    fn must map x to a scalar tensor and be deterministic. x is perturbed
    in place component by component; each component is restored and x.grad
    cleared afterwards, also when fn raises.
    """
    if not x.requires_grad:
        raise GradientError("grad_check: input tensor must require gradients")
    x.grad = None
    g_fd = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    fd_flat = g_fd.reshape(-1)
    try:
        with Tape() as tape:
            y = fn(x)
        if y.data.size != 1:
            raise GradientError(
                f"grad_check: fn must return a scalar, got shape {y.data.shape}")
        backward(tape, y)
        g_auto = np.zeros_like(x.data) if x.grad is None else np.array(x.grad)
        for i in range(flat.size):
            fd_flat[i] = _central_difference(lambda: fn(x), flat, i)
    finally:
        x.grad = None
    return float(relative_error(g_auto, g_fd).max())


def grad_check_components(
    loss_fn: Callable[[], Tensor],
    store: ParamStore,
    picks: Sequence[tuple],
) -> float:
    """Spot-check chosen parameter components of a full training loss.

    picks holds (path, flat_index) pairs. The tape gradient is computed
    once; each picked component is then verified by central differences.
    Returns the maximum relative error over the picks.
    """
    store.zero_grad()
    worst = 0.0
    try:
        with Tape() as tape:
            loss = loss_fn()
        backward(tape, loss)
        auto = store.gradients()
        for path, index in picks:
            flat = store[path].data.reshape(-1)
            if not (0 <= index < flat.size):
                raise GradientError(f"component {index} outside parameter {path!r}")
            fd = _central_difference(loss_fn, flat, index)
            ga = float(auto[path].reshape(-1)[index])
            worst = max(worst, float(relative_error(np.asarray(ga), np.asarray(fd))))
    finally:
        store.zero_grad()
    return worst


def _central_difference(fn: Callable[[], Tensor], flat: np.ndarray, i: int) -> float:
    """(fn at flat[i] + EPS - fn at flat[i] - EPS) / 2 EPS; flat[i] is restored
    bit for bit, also when fn raises."""
    saved = flat[i]
    try:
        flat[i] = saved + EPS
        hi = fn().item()
        flat[i] = saved - EPS
        lo = fn().item()
    finally:
        flat[i] = saved
    return (hi - lo) / (2.0 * EPS)
