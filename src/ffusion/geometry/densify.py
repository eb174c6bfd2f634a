"""Inverse-distance-weighted densification of sparse depth maps."""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ffusion.errors import ShapeError
from ffusion.geometry.depthmap import DepthMap

DEFAULT_RADIUS = 6
DEFAULT_NEIGHBORS = 8
DISTANCE_REG = 1e-6


@lru_cache(maxsize=None)
def _neighbor_offsets(radius: int) -> tuple:
    """Integer offsets within the radius, sorted by (distance, row, col).

    The fixed ordering makes neighbor selection fully deterministic: ties in
    distance always resolve by row offset, then column offset.
    """
    offsets = []
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            if dr == 0 and dc == 0:
                continue
            dist = float(np.hypot(dr, dc))
            if dist <= radius:
                offsets.append((dist, dr, dc))
    offsets.sort()
    return tuple(offsets)


def densify_stack(
    values: np.ndarray,
    valid: np.ndarray,
    radius: int = DEFAULT_RADIUS,
    k: int = DEFAULT_NEIGHBORS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fill missing cells of a stack of (N, H, W) sparse depth maps.

    Each missing cell takes the inverse-distance-weighted mean of up to k
    valid cells of its own map within the radius, weights 1/(d + 1e-6).
    Cells with no valid neighbor in range stay missing; originally valid
    cells pass through untouched. Filled values are clamped to the min/max
    of the contributing neighbors: the weighted mean is a convex combination,
    so the clamp only removes float rounding dust (a single neighbor fills
    exactly its value). Offsets are visited in (distance, row, col) order,
    each applied to every map at once, so every map's result is bit for bit
    what it would be alone. Returns new (values, valid) arrays.
    """
    if radius < 1:
        raise ValueError(f"radius must be at least 1, got {radius}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    values = np.asarray(values, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if values.ndim != 3 or valid.shape != values.shape:
        raise ShapeError(f"densify expects (N, H, W) values and validity, "
                         f"got {values.shape} and {valid.shape}")
    _, height, width = values.shape
    # Sources padded by the radius: each offset reads one full-size window,
    # and the invalid border never contributes.
    pad = ((0, 0), (radius, radius), (radius, radius))
    src_values, src_valid = np.pad(values, pad), np.pad(valid, pad)
    hole = ~valid
    count = np.zeros(values.shape, dtype=np.int64)
    weight_sum = np.zeros(values.shape)
    weighted_value = np.zeros(values.shape)
    low = np.full(values.shape, np.inf)
    high = np.full(values.shape, -np.inf)
    accept = np.empty(values.shape, dtype=bool)
    term = np.empty(values.shape)

    for dist, dr, dc in _neighbor_offsets(radius):
        window = (slice(None), slice(radius + dr, radius + dr + height),
                  slice(radius + dc, radius + dc + width))
        src_vals = src_values[window]
        np.less(count, k, out=accept)
        accept &= hole
        accept &= src_valid[window]
        if not accept.any():
            continue
        w = 1.0 / (dist + DISTANCE_REG)
        count += accept
        np.add(weight_sum, w, out=weight_sum, where=accept)
        np.multiply(src_vals, w, out=term)
        np.add(weighted_value, term, out=weighted_value, where=accept)
        np.minimum(low, src_vals, out=low, where=accept)
        np.maximum(high, src_vals, out=high, where=accept)

    filled = count > 0
    out_values = values.copy()
    out_valid = valid.copy()
    if filled.any():
        est = weighted_value[filled] / weight_sum[filled]
        out_values[filled] = np.clip(est, low[filled], high[filled])
        out_valid[filled] = True
    return out_values, out_valid


def densify_depth(
    sparse: DepthMap,
    radius: int = DEFAULT_RADIUS,
    k: int = DEFAULT_NEIGHBORS,
) -> DepthMap:
    """densify_stack on one map: a stack of one."""
    values, valid = densify_stack(sparse.values[None], sparse.valid[None], radius, k)
    return DepthMap(values[0], valid[0])
