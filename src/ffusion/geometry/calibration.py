"""Camera intrinsics: the pinhole model shared by rendering and projection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ffusion.errors import CalibrationError


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera model: u = fx*x/z + cx, v = fy*y/z + cy."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise CalibrationError(f"image size {self.width}x{self.height} must be positive")
        for name in ("fx", "fy"):
            focal = getattr(self, name)
            if not (np.isfinite(focal) and focal > 0.0):
                raise CalibrationError(f"{name} must be positive and finite, got {focal}")
        if not (0.0 <= self.cx < self.width):
            raise CalibrationError(f"cx {self.cx} outside [0, {self.width})")
        if not (0.0 <= self.cy < self.height):
            raise CalibrationError(f"cy {self.cy} outside [0, {self.height})")
