"""Per-modality input health monitoring.

Camera failure rules: non-finite rate above 5% or an all-constant (stuck-at)
image. A depth map fails when it is empty, a text when it is silent or one
repeated word. A failed modality is cleared from the availability
mask downstream; a non-finite rate in (0, 5%] marks the modality degraded
(still used, after sanitizing the offending values to zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ffusion.errors import FusionError
from ffusion.geometry.depthmap import DepthMap
from ffusion.model.encoders import MODALITIES

NONFINITE_FAIL_RATE = 0.05

NOMINAL = "nominal"
DEGRADED = "degraded"
FAILED = "failed"


@dataclass(frozen=True)
class ModalityHealth:
    """Triage status of one modality's input."""

    modality: str
    status: str

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise FusionError(f"unknown modality {self.modality!r}")
        if self.status not in (NOMINAL, DEGRADED, FAILED):
            raise FusionError(f"unknown health status {self.status!r}")

    @property
    def available(self) -> bool:
        return self.status != FAILED


def camera_health(rgb: np.ndarray) -> ModalityHealth:
    flat = np.asarray(rgb, dtype=np.float64).reshape(-1)
    finite = np.isfinite(flat)
    rate = float(1.0 - finite.mean())
    clean = flat[finite]
    if rate > NONFINITE_FAIL_RATE or np.all(clean == clean[0]):
        return ModalityHealth("camera", FAILED)
    return ModalityHealth("camera", DEGRADED if rate > 0.0 else NOMINAL)


def depth_health(sparse: DepthMap) -> ModalityHealth:
    """A sparse depth map fails only when no point projects into it.

    Its valid cells are finite and positive by construction, and a clean
    scan may put every point on one flat face at one depth, so neither the
    non-finite nor the constant rule applies to depth.
    """
    return ModalityHealth("depth", NOMINAL if sparse.valid.any() else FAILED)


def text_health(text: str) -> ModalityHealth:
    """A text channel fails silent (empty) or stuck (one repeated word)."""
    words = text.split() if isinstance(text, str) else []
    if not words:
        return ModalityHealth("text", FAILED)
    if len(set(words)) == 1 and len(words) > 1:
        return ModalityHealth("text", FAILED)
    return ModalityHealth("text", NOMINAL)
