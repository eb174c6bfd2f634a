"""LiDAR simulation: a co-located line scan along the camera's pixel rays."""

from __future__ import annotations

from ffusion.errors import SceneError
from ffusion.geometry.calibration import Intrinsics
from ffusion.geometry.pointcloud import PointCloud
from ffusion.scene.render import DEFAULT_INTRINSICS, RayHits, cast_rays, pixel_directions
from ffusion.scene.spec import SceneSpec

SCAN_ROW_STEP = 2  # the scan covers pixel rows 0, 2, 4, ...


def scan_from_hits(hits: RayHits, intrinsics: Intrinsics, row_step: int) -> PointCloud:
    """Hit points of pixel rows 0, row_step, 2 * row_step, ... in row-major order."""
    if row_step < 1:
        raise SceneError(f"row_step must be at least 1, got {row_step}")
    shape = (intrinsics.height, intrinsics.width)
    rows = hits.points.reshape(shape + (3,))[::row_step]
    return PointCloud(rows[hits.hit.reshape(shape)[::row_step]])


def simulate_depth_scan(
    scene: SceneSpec,
    intrinsics: Intrinsics = DEFAULT_INTRINSICS,
    row_step: int = SCAN_ROW_STEP,
) -> PointCloud:
    """Co-located line scan through pixel centers of every row_step-th row.

    The rays are exactly the renderer's pixel rays, so projecting the
    returned cloud reproduces rendered depth bit-for-bit at the scanned
    pixels. Covering every other row leaves the sparse map half empty,
    which is what densification is for.
    """
    return scan_from_hits(cast_rays(scene, pixel_directions(intrinsics)), intrinsics, row_step)
