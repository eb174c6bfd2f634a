"""Depth maps with explicit validity: container and translation.

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


def translate_depth(depth: DepthMap, dx: int, dy: int) -> DepthMap:
    """Move depth content by dx columns and dy rows; vacated cells go missing."""
    dx, dy = int(dx), int(dy)
    height, width = depth.values.shape
    values = np.zeros((height, width))
    valid = np.zeros((height, width), dtype=bool)
    src_r0, src_r1 = max(0, -dy), min(height, height - dy)
    src_c0, src_c1 = max(0, -dx), min(width, width - dx)
    if src_r0 < src_r1 and src_c0 < src_c1:
        dst = (slice(src_r0 + dy, src_r1 + dy), slice(src_c0 + dx, src_c1 + dx))
        src = (slice(src_r0, src_r1), slice(src_c0, src_c1))
        values[dst] = depth.values[src]
        valid[dst] = depth.valid[src]
    return DepthMap(values, valid)
