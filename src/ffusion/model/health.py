"""Per-modality input health monitoring.

Failure rules: non-finite rate above 5%, an all-constant (stuck-at) signal,
or an empty depth map. A failed modality is cleared from the availability
mask downstream; a non-finite rate in (0, 5%] marks the modality degraded
(still used, after sanitizing the offending values to zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ffusion.errors import FusionError
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


def _classify(modality: str, values: np.ndarray, empty: bool = False) -> ModalityHealth:
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if empty or flat.size == 0:
        return ModalityHealth(modality, FAILED)
    finite = np.isfinite(flat)
    rate = float(1.0 - finite.mean())
    clean = flat[finite]
    if rate > NONFINITE_FAIL_RATE:
        return ModalityHealth(modality, FAILED)
    if clean.size and np.all(clean == clean[0]):
        return ModalityHealth(modality, FAILED)
    return ModalityHealth(modality, DEGRADED if rate > 0.0 else NOMINAL)


def camera_health(rgb: np.ndarray) -> ModalityHealth:
    return _classify("camera", rgb)


def depth_health(values: np.ndarray, valid: np.ndarray) -> ModalityHealth:
    """Health of a sparse depth map: judged on its valid cells only."""
    valid = np.asarray(valid, dtype=bool)
    return _classify("depth", np.asarray(values)[valid], empty=not valid.any())


def text_health(text: str) -> ModalityHealth:
    """A text channel fails silent (empty) or stuck (one repeated word)."""
    words = text.split() if isinstance(text, str) else []
    if not words:
        return ModalityHealth("text", FAILED)
    if len(set(words)) == 1 and len(words) > 1:
        return ModalityHealth("text", FAILED)
    return ModalityHealth("text", NOMINAL)
