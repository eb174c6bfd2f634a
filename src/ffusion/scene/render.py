"""Analytic ray casting from the camera center and the renderers built on it.

One caster serves every consumer: rgb, depth and label rendering and the
pixel-aligned depth scan. Sharing the intersection code is what lets
projected scans and rendered depth agree to float precision. Each view is a
function of the pixel grid's hits (the *_from_hits functions), so a sample
casts its grid once for all four views; render_depth is one cast followed
by depth_from_hits. The pixel grid is the one camera's: its rays are
ffusion.geometry's PIXEL_RAYS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ffusion.geometry.calibration import IMAGE_SIDE, PIXEL_RAYS
from ffusion.geometry.depthmap import DepthMap
from ffusion.scene.spec import (
    CLASS_NAMES,
    GROUND_COLORS,
    GROUND_HEIGHT,
    SKY_COLOR,
    SceneObject,
    SceneSpec,
)

HIT_NONE = 0
HIT_GROUND = 1
HIT_OBJECT = 2

_T_MIN = 1e-9

LABEL_GRID = 8
_CELL = IMAGE_SIDE // LABEL_GRID  # image pixels per label cell edge


@dataclass(eq=False)
class RayHits:
    """Nearest-hit results for a batch of rays from the camera center."""

    t: np.ndarray       # ray parameter of the hit, +inf on miss
    kind: np.ndarray    # HIT_NONE / HIT_GROUND / HIT_OBJECT
    index: np.ndarray   # object index for HIT_OBJECT rows, else -1
    points: np.ndarray  # hit coordinates, zeros on miss

    @property
    def hit(self) -> np.ndarray:
        return self.kind != HIT_NONE


def _intersect_sphere(obj: SceneObject, dirs: np.ndarray) -> np.ndarray:
    radius = obj.size / 2.0
    oc = -obj.center
    a = np.einsum("ij,ij->i", dirs, dirs)
    b = 2.0 * (dirs @ oc)
    c = float(oc @ oc - radius * radius)
    disc = b * b - 4.0 * a * c
    hit = disc >= 0.0
    sqrt_disc = np.sqrt(np.where(hit, disc, 0.0))
    near = (-b - sqrt_disc) / (2.0 * a)
    far = (-b + sqrt_disc) / (2.0 * a)
    t = np.where(near > _T_MIN, near, far)
    return np.where(hit & (t > _T_MIN), t, np.inf)


def _intersect_box(obj: SceneObject, dirs: np.ndarray) -> np.ndarray:
    half = obj.size / 2.0
    bmin = obj.center - half
    bmax = obj.center + half
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = bmin / dirs
        hi = bmax / dirs
    t0 = np.minimum(lo, hi)
    t1 = np.maximum(lo, hi)
    # Rays parallel to a slab need the containment test spelled out because
    # 0/0 is undefined arithmetic, not geometry.
    parallel = dirs == 0.0
    inside = (bmin <= 0.0) & (bmax >= 0.0)
    t0 = np.where(parallel, np.where(inside, -np.inf, np.inf), t0)
    t1 = np.where(parallel, np.where(inside, np.inf, -np.inf), t1)
    enter = t0.max(axis=1)
    leave = t1.min(axis=1)
    hit = (enter <= leave) & (enter > _T_MIN)
    return np.where(hit, enter, np.inf)


def cast_rays(scene: SceneSpec, dirs: np.ndarray) -> RayHits:
    """Nearest intersection of each camera-center ray with the ground plane and all props."""
    d = np.ascontiguousarray(np.asarray(dirs, dtype=np.float64))
    if d.ndim != 2 or d.shape[1] != 3:
        raise ValueError(f"ray directions must be (n, 3), got {d.shape}")
    n = d.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = GROUND_HEIGHT / d[:, 1]
    ground_ok = np.isfinite(t_ground) & (t_ground > _T_MIN)
    best = np.where(ground_ok, t_ground, np.inf)
    kind = np.where(ground_ok, HIT_GROUND, HIT_NONE)
    index = np.full(n, -1, dtype=np.int64)
    for i, obj in enumerate(scene.objects):
        if obj.shape == "sphere":
            t_obj = _intersect_sphere(obj, d)
        else:
            t_obj = _intersect_box(obj, d)
        nearer = t_obj < best
        best = np.where(nearer, t_obj, best)
        kind = np.where(nearer, HIT_OBJECT, kind)
        index = np.where(nearer, i, index)
    hit = kind != HIT_NONE
    points = np.where(hit[:, None], np.where(hit, best, 0.0)[:, None] * d, 0.0)
    return RayHits(t=best, kind=kind, index=index, points=points)


def depth_from_hits(hits: RayHits) -> DepthMap:
    """Z-depth of the nearest surface through each pixel center; sky is missing."""
    shape = (IMAGE_SIDE, IMAGE_SIDE)
    return DepthMap(np.where(hits.hit, hits.t, 0.0).reshape(shape), hits.hit.reshape(shape))


def rgb_from_hits(scene: SceneSpec, hits: RayHits) -> np.ndarray:
    """Flat-shaded color image in [0, 1]: props, checkerboard ground, sky."""
    palette = np.array([SKY_COLOR, *GROUND_COLORS, *(obj.color for obj in scene.objects)],
                       dtype=np.float64)
    # Palette rows: 0 sky, 1 and 2 the ground checkerboard, 3 + i object i.
    cells = np.floor(hits.points[:, 0]) + np.floor(hits.points[:, 2])
    shade = np.where(np.mod(cells, 2.0) == 0.0, 1, 2)
    shade = np.where(hits.kind == HIT_GROUND, shade, 0)
    shade = np.where(hits.kind == HIT_OBJECT, 3 + hits.index, shade)
    return palette[shade].reshape(IMAGE_SIDE, IMAGE_SIDE, 3)


def labels_from_hits(scene: SceneSpec, hits: RayHits) -> np.ndarray:
    """Class id per label cell on the LABEL_GRID x LABEL_GRID grid.

    Each cell covers a 4x4 pixel block. A cell takes an object class only
    when object pixels hold a strict majority of the block; the winning
    class is the most frequent one, ties resolving to the smaller class id.
    """
    ids = np.array([0, *(obj.class_id for obj in scene.objects)], dtype=np.int64)
    pixel_class = ids[np.where(hits.kind == HIT_OBJECT, hits.index + 1, 0)]
    blocks = (
        pixel_class.reshape(LABEL_GRID, _CELL, LABEL_GRID, _CELL)
        .transpose(0, 2, 1, 3)
        .reshape(LABEL_GRID, LABEL_GRID, _CELL * _CELL)
    )
    counts = (blocks[..., None] == np.arange(1, len(CLASS_NAMES))).sum(axis=2)
    majority = _CELL * _CELL // 2  # strict majority threshold
    # argmax ties go to the first, i.e. the smaller, class id.
    return np.where(counts.sum(axis=-1) > majority, counts.argmax(axis=-1) + 1, 0)


def render_depth(scene: SceneSpec) -> DepthMap:
    """Cast the pixel grid and render its depth map (see depth_from_hits)."""
    return depth_from_hits(cast_rays(scene, PIXEL_RAYS))
