"""Co-located depth-camera geometry: the camera, projection, densification."""

from ffusion.geometry.calibration import (
    CENTER_X,
    CENTER_Y,
    FOCAL_X,
    FOCAL_Y,
    IMAGE_SIDE,
    PIXEL_RAYS,
)
from ffusion.geometry.densify import densify_depth, densify_stack
from ffusion.geometry.depthmap import DepthMap
from ffusion.geometry.pointcloud import PointCloud
from ffusion.geometry.projection import NEAR_PLANE, project_point_cloud

__all__ = [
    "CENTER_X",
    "CENTER_Y",
    "DepthMap",
    "FOCAL_X",
    "FOCAL_Y",
    "IMAGE_SIDE",
    "NEAR_PLANE",
    "PIXEL_RAYS",
    "PointCloud",
    "densify_depth",
    "densify_stack",
    "project_point_cloud",
]
