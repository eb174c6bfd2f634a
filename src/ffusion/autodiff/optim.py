"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ffusion.autodiff.params import ParamStore
from ffusion.autodiff.tensor import Array
from ffusion.errors import OptimizerError


@dataclass
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (self.lr > 0.0 and np.isfinite(self.lr)):
            raise OptimizerError(f"lr must be positive and finite, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise OptimizerError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.eps <= 0.0:
            raise OptimizerError(f"eps must be positive, got {self.eps}")


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
    config: AdamConfig,
) -> None:
    """One in-place Adam update over every parameter, in sorted path order.

    Identical store, gradients, state and config always produce identical
    updates. Non-finite gradients abort with the offending parameter named.
    """
    state.step += 1
    t = state.step
    correction1 = 1.0 - config.beta1 ** t
    correction2 = 1.0 - config.beta2 ** t
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
        step = np.multiply(g, 1.0 - config.beta1)
        m *= config.beta1
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - config.beta2
        v *= config.beta2
        v += step
        np.divide(m, correction1, out=step)
        step *= config.lr
        denom = np.divide(v, correction2)
        np.sqrt(denom, out=denom)
        denom += config.eps
        step /= denom
        param.data -= step

