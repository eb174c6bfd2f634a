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
    in place component by component and restored afterwards.
    """
    if not x.requires_grad:
        raise GradientError("grad_check: input tensor must require gradients")
    x.grad = None
    with Tape() as tape:
        y = fn(x)
    if y.data.size != 1:
        raise GradientError(f"grad_check: fn must return a scalar, got shape {y.data.shape}")
    backward(tape, y)
    g_auto = np.zeros_like(x.data) if x.grad is None else np.array(x.grad)
    g_fd = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    fd_flat = g_fd.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + EPS
        hi = fn(x).item()
        flat[i] = saved - EPS
        lo = fn(x).item()
        flat[i] = saved
        fd_flat[i] = (hi - lo) / (2.0 * EPS)
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
    with Tape() as tape:
        loss = loss_fn()
    backward(tape, loss)
    auto = store.gradients()
    worst = 0.0
    for path, index in picks:
        param = store[path]
        flat = param.data.reshape(-1)
        if not (0 <= index < flat.size):
            raise GradientError(f"component {index} outside parameter {path!r}")
        saved = flat[index]
        flat[index] = saved + EPS
        hi = loss_fn().item()
        flat[index] = saved - EPS
        lo = loss_fn().item()
        flat[index] = saved
        fd = (hi - lo) / (2.0 * EPS)
        ga = float(auto[path].reshape(-1)[index])
        err = float(relative_error(np.asarray(ga), np.asarray(fd)))
        worst = max(worst, err)
    store.zero_grad()
    return worst
