"""Named parameter registry for trainable tensors."""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from ffusion.autodiff.tensor import Array, Tensor
from ffusion.errors import CheckpointError


class ParamStore:
    """Maps dotted paths to trainable tensors.

    Paths are unique and iteration is always in sorted path order, which
    keeps optimizer updates and checkpoint layouts canonical regardless of
    registration order.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def register(self, path: str, tensor: Tensor) -> Tensor:
        if not path or not isinstance(path, str):
            raise ValueError(f"parameter path must be a non-empty string, got {path!r}")
        if path in self._params:
            raise ValueError(f"parameter path already registered: {path!r}")
        if not tensor.requires_grad:
            raise ValueError(f"parameter {path!r} must require gradients")
        self._params[path] = tensor
        return tensor

    def __getitem__(self, path: str) -> Tensor:
        return self._params[path]

    def paths(self) -> tuple:
        return tuple(sorted(self._params))

    def items(self) -> Iterator:
        for path in self.paths():
            yield path, self._params[path]

    def zero_grad(self) -> None:
        for param in self._params.values():
            param.grad = None

    def gradients(self) -> dict:
        """Current gradients by path; parameters never touched read as zeros."""
        grads = {}
        for path, param in self.items():
            grads[path] = (
                np.zeros_like(param.data) if param.grad is None else param.grad
            )
        return grads

    def load_state_dict(self, state: Mapping[str, Array]) -> None:
        """Overwrite parameter values; paths and shapes must match exactly
        and every value must be finite."""
        missing = sorted(set(self._params) - set(state))
        extra = sorted(set(state) - set(self._params))
        if missing or extra:
            raise CheckpointError(
                f"parameter set mismatch: missing {missing}, unexpected {extra}"
            )
        for path, param in self.items():
            arr = np.asarray(state[path], dtype=np.float64)
            if arr.shape != param.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {path!r}: stored {arr.shape}, "
                    f"model {param.data.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"parameter {path!r} holds non-finite values")
        for path, param in self.items():
            param.data = np.ascontiguousarray(np.asarray(state[path], dtype=np.float64))
            param.grad = None
