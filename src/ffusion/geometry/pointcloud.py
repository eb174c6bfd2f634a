"""Point cloud container and its ASCII file format.

File layout:
    line "FFUSION-PCD v1 <n>"
    n lines "x y z" with repr() floats (exact round-trip)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ffusion.asciifile import header_int, parse_numbers, read_ascii
from ffusion.errors import DataError

PCD_MAGIC = "FFUSION-PCD v1"


@dataclass(eq=False)
class PointCloud:
    """N camera-frame points (the depth scan is co-located), meters, float64, all finite."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DataError(f"point cloud must be (n, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DataError("point cloud contains non-finite coordinates")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(np.zeros((0, 3)))


def write_point_cloud(cloud: PointCloud, path) -> None:
    lines = [f"{PCD_MAGIC} {len(cloud)}"]
    coords = list(map(repr, cloud.points.ravel().tolist()))
    lines += map(" ".join, zip(coords[0::3], coords[1::3], coords[2::3]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_point_cloud(path) -> PointCloud:
    header, _, body = read_ascii(path).partition("\n")
    head = header.rsplit(" ", 1)
    if len(head) != 2 or head[0] != PCD_MAGIC:
        raise DataError(f"unsupported point cloud header: {header!r}")
    count = header_int(head[1], path)
    return PointCloud(parse_numbers(body, np.float64, (count, 3), path, line_width=3))
