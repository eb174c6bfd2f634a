"""Depth maps with explicit validity: container, translation, ASCII file format.

Valid cells hold strictly positive, finite depths in meters; invalid cells
hold exactly 0.0 and are flagged in the mask. The file format is:
    line "FFUSION-DEPTH v1 <width> <height>"
    height lines of width entries, repr() floats, missing written as -1
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ffusion.asciifile import header_int, parse_numbers, read_ascii
from ffusion.errors import DataError

DEPTH_MAGIC = "FFUSION-DEPTH v1"


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


def write_depth(depth: DepthMap, path) -> None:
    lines = [f"{DEPTH_MAGIC} {depth.width} {depth.height}"]
    for values, valid in zip(depth.values.tolist(), depth.valid.tolist()):
        lines.append(" ".join([repr(v) if ok else "-1" for v, ok in zip(values, valid)]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_depth(path) -> DepthMap:
    header, _, body = read_ascii(path).partition("\n")
    fields = header.split()
    if len(fields) != 4 or " ".join(fields[:2]) != DEPTH_MAGIC:
        raise DataError(f"unsupported depth header: {header!r}")
    width, height = header_int(fields[2], path), header_int(fields[3], path)
    if width < 1 or height < 1:
        raise DataError(f"depth dimensions must be positive, got {width}x{height} in {path}")
    values = parse_numbers(body, np.float64, (height, width), path, line_width=width)
    valid = values != -1.0
    values[~valid] = 0.0
    return DepthMap(values, valid)
