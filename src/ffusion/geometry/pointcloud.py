"""Point cloud container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ffusion.errors import DataError


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
