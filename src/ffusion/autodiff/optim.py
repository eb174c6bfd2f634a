"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ffusion.autodiff.params import ParamStore
from ffusion.autodiff.tensor import Array
from ffusion.errors import OptimizerError


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First and second moment estimates per parameter path."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_store(cls, store: ParamStore) -> "AdamState":
        state = cls()
        for path, param in store.items():
            state.m[path] = np.zeros_like(param.data)
            state.v[path] = np.zeros_like(param.data)
        return state


def adam_step(
    store: ParamStore,
    grads: Mapping[str, Array],
    state: AdamState,
    lr: float,
) -> None:
    """One in-place Adam update over every parameter, in sorted path order.

    Identical store, gradients, state and lr always produce identical
    updates. Non-finite gradients abort with the offending parameter named.
    """
    if not (lr > 0.0 and np.isfinite(lr)):
        raise OptimizerError(f"lr must be positive and finite, got {lr}")
    state.step += 1
    t = state.step
    correction1 = 1.0 - BETA1 ** t
    correction2 = 1.0 - BETA2 ** t
    for path, param in store.items():
        if path not in grads:
            raise OptimizerError(f"missing gradient for parameter {path!r}")
        g = grads[path]
        if g.shape != param.data.shape:
            raise OptimizerError(
                f"gradient shape {g.shape} does not match parameter "
                f"{path!r} of shape {param.data.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise OptimizerError(f"non-finite gradient for parameter {path!r}")
        m = state.m[path]
        v = state.v[path]
        # param -= lr * m_hat / (sqrt(v_hat) + eps), in two temporaries.
        step = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - BETA2
        v *= BETA2
        v += step
        np.divide(m, correction1, out=step)
        step *= lr
        denom = np.divide(v, correction2)
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        param.data -= step

