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
DROP_EVERY = 16  # offsets between drops of the cells that reached k


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

    Only candidate holes are visited: those with a valid cell in their
    (2r+1)^2 square. Every DROP_EVERY offsets the cells that reached k stop
    being visited.
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
    # Sources padded by the radius: an offset is one fixed shift of a flat
    # padded index, and the invalid border never contributes.
    pad = ((0, 0), (radius, radius), (radius, radius))
    src_valid = np.pad(valid, pad)
    cells, targets = _candidates(valid, src_valid, radius)
    src_valid = src_valid.ravel()
    src_values = np.pad(values, pad).ravel()
    padded_width = values.shape[2] + 2 * radius
    count = np.zeros(len(cells), dtype=np.uint8 if k <= 255 else np.int64)
    weight_sum = np.zeros(len(cells))
    weighted_value = np.zeros(len(cells))
    low = np.full(len(cells), np.inf)
    high = np.full(len(cells), -np.inf)
    finished = []  # per dropped batch: targets, weight_sum, weighted_value, low, high

    for step, (dist, dr, dc) in enumerate(_neighbor_offsets(radius)):
        if step and step % DROP_EVERY == 0:
            keep = count < k
            if not keep.all():
                done = ~keep
                finished.append([a[done] for a in (targets, weight_sum, weighted_value, low, high)])
                cells, targets, count = cells[keep], targets[keep], count[keep]
                weight_sum, weighted_value = weight_sum[keep], weighted_value[keep]
                low, high = low[keep], high[keep]
        if not len(cells):
            break
        source = cells + (dr * padded_width + dc)
        accept = src_valid.take(source)
        accept &= count < k
        hit = np.flatnonzero(accept)
        if not len(hit):
            continue
        w = 1.0 / (dist + DISTANCE_REG)
        src_vals = src_values.take(source.take(hit))
        count[hit] += 1
        weight_sum[hit] += w
        weighted_value[hit] += src_vals * w
        low[hit] = np.minimum(low.take(hit), src_vals)
        high[hit] = np.maximum(high.take(hit), src_vals)

    filled = count > 0
    finished.append([a[filled] for a in (targets, weight_sum, weighted_value, low, high)])
    targets, weight_sum, weighted_value, low, high = (np.concatenate(a) for a in zip(*finished))
    out_values = values.copy()
    out_valid = valid.copy()
    out_values.ravel()[targets] = np.clip(weighted_value / weight_sum, low, high)
    out_valid.ravel()[targets] = True
    return out_values, out_valid


def _candidates(valid: np.ndarray, src_valid: np.ndarray,
                radius: int) -> Tuple[np.ndarray, np.ndarray]:
    """Holes with a valid cell in their (2r+1)^2 square, from 2-D prefix sums
    of the padded validity src_valid. Returns their flat indices into the
    padded stack and into the stack, both in (map, row, col) order."""
    side = 2 * radius + 1
    n, height, width = valid.shape
    sums = np.zeros((n, height + side, width + side), dtype=np.int32)
    np.cumsum(np.cumsum(src_valid, axis=1, dtype=np.int32), axis=2, out=sums[:, 1:, 1:])
    in_square = (sums[:, side:, side:] - sums[:, :-side, side:]
                 - sums[:, side:, :-side] + sums[:, :-side, :-side])
    candidate = ~valid & (in_square > 0)
    embedded = np.zeros(src_valid.shape, dtype=bool)
    embedded[:, radius:radius + height, radius:radius + width] = candidate
    return np.flatnonzero(embedded), np.flatnonzero(candidate)


def densify_depth(
    sparse: DepthMap,
    radius: int = DEFAULT_RADIUS,
    k: int = DEFAULT_NEIGHBORS,
) -> DepthMap:
    """densify_stack on one map: a stack of one."""
    values, valid = densify_stack(sparse.values[None], sparse.valid[None], radius, k)
    return DepthMap(values[0], valid[0])
