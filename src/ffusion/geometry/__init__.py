"""Co-located depth-camera geometry: intrinsics, projection, densification."""

from ffusion.geometry.calibration import Intrinsics
from ffusion.geometry.densify import densify_depth, densify_stack
from ffusion.geometry.depthmap import DepthMap
from ffusion.geometry.pointcloud import PointCloud
from ffusion.geometry.projection import NEAR_PLANE, project_point_cloud

__all__ = [
    "DepthMap",
    "Intrinsics",
    "NEAR_PLANE",
    "PointCloud",
    "densify_depth",
    "densify_stack",
    "project_point_cloud",
]
