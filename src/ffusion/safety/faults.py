"""Deterministic sensor fault injection for robustness campaigns.

Faults corrupt raw Sample data, never model internals: the corrupted
sample flows through the same health triage and feature preparation as
clean data, so downstream behavior (availability gating, placeholder
features) is exactly what deployment would see. A LiDAR miscalibration
moves the point cloud itself, so only the depth encoder sees it.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..autodiff import Rng
from ..errors import FaultError
from ..geometry.pointcloud import PointCloud
from ..scene.dataset import Sample
from ..scene.render import DEFAULT_INTRINSICS

FAULT_KINDS = ("blackout", "gaussian_noise", "stuck_at",
               "miscalibration_shift", "partial_dropout")
FAULT_MODALITIES = ("camera", "lidar", "text")

# Which fault kinds are physically meaningful per modality.
_VALID = {
    "blackout": ("camera", "lidar", "text"),
    "gaussian_noise": ("camera", "lidar"),
    "stuck_at": ("camera",),
    "miscalibration_shift": ("lidar",),
    "partial_dropout": ("lidar",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what breaks, how it breaks, and how badly.

    magnitude is the noise sigma, the stuck pixel value, the miscalibration
    shift in pixels, or the dropout fraction, depending on kind.
    """

    modality: str
    kind: str
    magnitude: float = 0.0
    seed: int = 0

    # from_plain reads a fault spec with this error class, so a malformed one
    # is invalid data (exit 5), inside a config too.
    read_error = FaultError

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}")
        if self.modality not in FAULT_MODALITIES:
            raise FaultError(f"unknown fault modality {self.modality!r}")
        if self.modality not in _VALID[self.kind]:
            raise FaultError(
                f"fault kind {self.kind!r} does not apply to {self.modality!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise FaultError(f"fault seed must be an integer >= 0, got {self.seed!r}")
        if (not isinstance(self.magnitude, numbers.Real) or isinstance(self.magnitude, bool)
                or not math.isfinite(self.magnitude) or self.magnitude < 0):
            raise FaultError(f"fault magnitude must be a number >= 0, got {self.magnitude!r}")
        object.__setattr__(self, "magnitude", float(self.magnitude))
        if self.kind == "partial_dropout" and self.magnitude > 1.0:
            raise FaultError(f"dropout fraction must be <= 1, got {self.magnitude}")


def _fault_rng(sample: Sample, spec: FaultSpec) -> Rng:
    return Rng(spec.seed).derive(f"{spec.kind}/{sample.sample_id}")


def inject_fault(sample: Sample, spec: FaultSpec) -> Sample:
    """Return a corrupted copy of the sample; deterministic per (sample, spec)."""
    if spec.kind == "blackout":
        if spec.modality == "camera":
            return dataclasses.replace(sample, rgb=np.zeros_like(sample.rgb))
        if spec.modality == "lidar":
            return dataclasses.replace(
                sample, cloud=PointCloud(np.zeros_like(sample.cloud.points)))
        return dataclasses.replace(sample, text="")

    if spec.kind == "stuck_at":
        return dataclasses.replace(
            sample, rgb=np.full_like(sample.rgb, spec.magnitude))

    if spec.kind == "gaussian_noise":
        if spec.magnitude == 0.0:
            return sample
        rng = _fault_rng(sample, spec)
        if spec.modality == "camera":
            noisy = sample.rgb + spec.magnitude * rng.normal(sample.rgb.shape)
            return dataclasses.replace(sample, rgb=noisy)
        points = sample.cloud.points
        noisy = points + spec.magnitude * rng.normal(points.shape)
        return dataclasses.replace(sample, cloud=PointCloud(noisy))

    if spec.kind == "miscalibration_shift":
        # Each point moves magnitude pixels right and down in the image
        # plane at its own depth.
        x, y, z = sample.cloud.points.T
        moved = np.column_stack([x + spec.magnitude * z / DEFAULT_INTRINSICS.fx,
                                 y + spec.magnitude * z / DEFAULT_INTRINSICS.fy, z])
        return dataclasses.replace(sample, cloud=PointCloud(moved))

    # partial_dropout: remove round(fraction * n) points, order preserved
    points = sample.cloud.points
    n = len(points)
    removed = int(round(spec.magnitude * n))
    if removed == 0:
        return sample
    order = _fault_rng(sample, spec).permutation(n)
    kept = np.sort(order[removed:])
    return dataclasses.replace(sample, cloud=PointCloud(points[kept]))


def inject_faults(sample: Sample, specs: Tuple[FaultSpec, ...]) -> Sample:
    """Apply several faults in order."""
    for spec in specs:
        sample = inject_fault(sample, spec)
    return sample
