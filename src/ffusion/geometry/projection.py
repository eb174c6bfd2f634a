"""Pinhole projection of camera-frame point clouds into depth maps."""

from __future__ import annotations

import numpy as np

from ffusion.geometry.calibration import CENTER_X, CENTER_Y, FOCAL_X, FOCAL_Y, IMAGE_SIDE
from ffusion.geometry.depthmap import DepthMap
from ffusion.geometry.pointcloud import PointCloud

# Points closer than this to the image plane are dropped, never projected.
NEAR_PLANE = 1e-6


def project_point_cloud(cloud: PointCloud) -> DepthMap:
    """Project camera-frame points into the camera's sparse depth map.

    Pixel cells are found by flooring the continuous image coordinates.
    When several points land in one cell the smallest depth wins (z-buffer);
    among equal depths the latest point in cloud order wins, which keeps the
    result independent of sorting internals.
    """
    pts = cloud.points
    depth = DepthMap.empty(IMAGE_SIDE, IMAGE_SIDE)
    if pts.shape[0] == 0:
        return depth
    z = pts[:, 2]
    keep = z > NEAR_PLANE
    pts = pts[keep]
    z = z[keep]
    if pts.shape[0] == 0:
        return depth
    u = FOCAL_X * pts[:, 0] / z + CENTER_X
    v = FOCAL_Y * pts[:, 1] / z + CENTER_Y
    cols = np.floor(u).astype(np.int64)
    rows = np.floor(v).astype(np.int64)
    inside = (cols >= 0) & (cols < IMAGE_SIDE) & (rows >= 0) & (rows < IMAGE_SIDE)
    rows, cols, z = rows[inside], cols[inside], z[inside]
    if z.size == 0:
        return depth
    # Stable sort by descending depth: the final (nearest) write per cell wins.
    order = np.argsort(-z, kind="stable")
    rows, cols, z = rows[order], cols[order], z[order]
    depth.values[rows, cols] = z
    depth.valid[rows, cols] = True
    return depth

