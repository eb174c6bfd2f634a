"""Depth maps with explicit validity.

Valid cells hold strictly positive, finite depths in meters; invalid cells
hold exactly 0.0 and are flagged in the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ffusion.errors import DataError


@dataclass(eq=False)
class DepthMap:
    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        mask = np.ascontiguousarray(np.asarray(self.valid, dtype=bool))
        if vals.ndim != 2:
            raise DataError(f"depth map must be 2-d, got shape {vals.shape}")
        if mask.shape != vals.shape:
            raise DataError(f"validity mask {mask.shape} does not match values {vals.shape}")
        picked = vals[mask]
        if picked.size and not (np.all(np.isfinite(picked)) and np.all(picked > 0.0)):
            raise DataError("valid depth cells must be finite and strictly positive")
        if not np.all(vals[~mask] == 0.0):
            raise DataError("invalid depth cells must hold exactly 0.0")
        self.values = vals
        self.valid = mask

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @classmethod
    def empty(cls, height: int, width: int) -> "DepthMap":
        return cls(np.zeros((height, width)), np.zeros((height, width), dtype=bool))
