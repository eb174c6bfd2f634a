"""LiDAR-camera sensor geometry: calibration, projection, densification."""

from ffusion.geometry.calibration import (
    CalibrationReport,
    Extrinsics,
    Intrinsics,
    validate_calibration,
)
from ffusion.geometry.densify import densify_depth, densify_stack
from ffusion.geometry.depthmap import DepthMap, read_depth, write_depth
from ffusion.geometry.pointcloud import PointCloud, read_point_cloud, write_point_cloud
from ffusion.geometry.projection import (
    NEAR_PLANE,
    back_project_depth,
    back_project_pixel,
    project_point_cloud,
)
from ffusion.geometry.register import RegisteredFrame, register_depth_to_rgb, translate_depth

__all__ = [
    "CalibrationReport",
    "DepthMap",
    "Extrinsics",
    "Intrinsics",
    "NEAR_PLANE",
    "PointCloud",
    "RegisteredFrame",
    "back_project_depth",
    "back_project_pixel",
    "densify_depth",
    "densify_stack",
    "project_point_cloud",
    "read_depth",
    "read_point_cloud",
    "register_depth_to_rgb",
    "translate_depth",
    "validate_calibration",
    "write_depth",
    "write_point_cloud",
]
