"""The one camera: a fixed pinhole at the origin, looking down +z.

Rendering, the co-located LiDAR scan, projection and the LiDAR
miscalibration fault all use it. A camera-frame point (x, y, z) images at
u = FOCAL_X * x / z + CENTER_X, v = FOCAL_Y * y / z + CENTER_Y on an
IMAGE_SIDE x IMAGE_SIDE pixel grid.
"""

import numpy as np

IMAGE_SIDE = 32  # camera and depth images are IMAGE_SIDE pixels square
FOCAL_X = FOCAL_Y = 28.0
CENTER_X = CENTER_Y = IMAGE_SIDE / 2

# Unnormalized pixel-center ray directions with unit z component, row-major,
# (IMAGE_SIDE ** 2, 3). With dir_z = 1 the ray parameter of a hit IS its z
# depth, which keeps rendered depth and projected scan depth bit-identical
# by construction.
_x = (np.arange(IMAGE_SIDE) + 0.5 - CENTER_X) / FOCAL_X
_y = (np.arange(IMAGE_SIDE) + 0.5 - CENTER_Y) / FOCAL_Y
_gx, _gy = np.meshgrid(_x, _y)
PIXEL_RAYS = np.stack([_gx, _gy, np.ones_like(_gx)], axis=-1).reshape(-1, 3)
PIXEL_RAYS.flags.writeable = False
del _x, _y, _gx, _gy
