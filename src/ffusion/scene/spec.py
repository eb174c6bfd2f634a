"""Scene description types and the seeded scene generator.

The world is a desk-scale driving vignette in camera coordinates: x right,
y down, z forward, camera at the origin. A checkerboard ground plane sits at
y = GROUND_HEIGHT and between one and six props (spheres and axis-aligned
boxes) rest on it ahead of the camera.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ffusion.autodiff.rng import Rng
from ffusion.errors import SceneError

GROUND_HEIGHT = 1.5
GROUND_COLORS = ((0.35, 0.35, 0.35), (0.45, 0.45, 0.45))
SKY_COLOR = (0.55, 0.70, 0.90)

CLASS_NAMES = ("background", "pedestrian", "vehicle", "barrier")
CLASS_IDS = {name: i for i, name in enumerate(CLASS_NAMES)}
OBJECT_CLASSES = CLASS_NAMES[1:]

PALETTE = {
    "pedestrian": (0.85, 0.20, 0.20),
    "vehicle": (0.20, 0.30, 0.85),
    "barrier": (0.80, 0.75, 0.30),
}

MAX_OBJECTS = 6
MIN_SPACING = 0.5
MIN_FRONT_Z = 1.0

# Placement ranges for the generator.
_Z_RANGE = (2.5, 18.0)
_LATERAL_SCALE = 6.0
_PEDESTRIAN_PROB = 0.15
_SIZE_RANGES = {
    "pedestrian": (0.5, 0.9),
    "vehicle": (1.2, 2.0),
    "barrier": (0.8, 1.6),
}


@dataclass(eq=False)
class SceneObject:
    """One prop: a sphere or an axis-aligned box of edge/diameter `size`."""

    shape: str
    class_name: str
    center: np.ndarray
    size: float
    color: np.ndarray

    def __post_init__(self):
        if self.shape not in ("sphere", "box"):
            raise SceneError(f"unknown shape {self.shape!r}")
        if self.class_name not in OBJECT_CLASSES:
            raise SceneError(f"unknown object class {self.class_name!r}")
        center = np.asarray(self.center, dtype=np.float64)
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise SceneError(f"bad object center {self.center!r}")
        if not (0.0 < self.size <= 2.0):
            raise SceneError(f"object size {self.size} outside (0, 2]")
        if center[2] - self.size / 2.0 <= MIN_FRONT_Z:
            raise SceneError(
                f"object at z={center[2]:.3f} with size {self.size:.3f} "
                f"is not clearly in front of the camera"
            )
        color = np.asarray(self.color, dtype=np.float64)
        if color.shape != (3,) or not np.all((color >= 0.0) & (color <= 1.0)):
            raise SceneError(f"bad object color {self.color!r}")
        self.center = center
        self.color = color

    @property
    def class_id(self) -> int:
        return CLASS_IDS[self.class_name]


@dataclass(eq=False)
class SceneSpec:
    """A complete renderable scene description."""

    objects: tuple

    def __post_init__(self):
        objs = tuple(self.objects)
        if not (1 <= len(objs) <= MAX_OBJECTS):
            raise SceneError(f"scene must hold 1..{MAX_OBJECTS} objects, got {len(objs)}")
        self.objects = objs


def _draw_object(rng: Rng) -> SceneObject:
    u_class = rng.uniform()
    if u_class < _PEDESTRIAN_PROB:
        class_name = "pedestrian"
    else:
        class_name = "vehicle" if rng.uniform() < 0.5 else "barrier"
    shape = "sphere" if rng.uniform() < 0.5 else "box"
    lo, hi = _SIZE_RANGES[class_name]
    size = float(rng.uniform(lo, hi))
    # Signed-quadratic lateral placement concentrates mass near the lane
    # center, keeping the derived command classes roughly balanced.
    t = float(rng.uniform(-1.0, 1.0))
    x = _LATERAL_SCALE * t * abs(t)
    z = float(rng.uniform(*_Z_RANGE))
    jitter = rng.uniform(-0.05, 0.05, 3)
    color = np.clip(np.asarray(PALETTE[class_name]) + jitter, 0.05, 0.95)
    y = GROUND_HEIGHT - size / 2.0  # resting on the ground plane
    return SceneObject(shape, class_name, np.array([x, y, z]), size, color)


def _respaced(obj: SceneObject, rng: Rng) -> SceneObject:
    t = float(rng.uniform(-1.0, 1.0))
    x = _LATERAL_SCALE * t * abs(t)
    z = float(rng.uniform(*_Z_RANGE))
    center = np.array([x, GROUND_HEIGHT - obj.size / 2.0, z])
    return SceneObject(obj.shape, obj.class_name, center, obj.size, obj.color)


def generate_scene(seed: int) -> SceneSpec:
    """Deterministic scene for a seed: same seed, same scene, always.

    Objects are placed with at least MIN_SPACING between centers; placement
    retries up to 1000 times before giving up.
    """
    rng = Rng(seed).derive("scene")
    count = 1 + int(rng.integers(0, MAX_OBJECTS))
    objects: list = []
    for _ in range(count):
        obj = _draw_object(rng)
        attempts = 0
        while any(
            np.linalg.norm(obj.center - other.center) < MIN_SPACING for other in objects
        ):
            attempts += 1
            if attempts > 1000:
                raise SceneError(f"could not place object with spacing {MIN_SPACING}")
            obj = _respaced(obj, rng)
        objects.append(obj)
    return SceneSpec(tuple(objects))
