"""Shared architecture constants for encoders, fusion and decoders, and the
checks of config counts and numbers."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from ffusion.errors import ConfigError
from ffusion.scene.render import IMAGE_SIDE, LABEL_GRID

SEG_BLOCK = 2  # label cells per patch side that the segmentation head decodes


def require_int(name: str, value, low: int) -> None:
    """Raise ConfigError unless value is an int >= low; a bool (JSON true) is not a count."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def require_real(name: str, value) -> float:
    """Return value as a float; raise ConfigError unless it is a real number, not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ModelConfig:
    """Latent width, block counts and tokenization geometry.

    The defaults are the smallest setting that exercises multi-head,
    multi-block behavior while training in minutes on a CPU.
    """

    d: int = 64
    blocks: int = 2
    heads: int = 4
    patch: int = 8
    text_len: int = 8

    def __post_init__(self):
        for name in ("d", "blocks", "heads", "patch", "text_len"):
            require_int(name, getattr(self, name), 1)
        side, rest = divmod(IMAGE_SIDE, self.patch)
        if rest or side * SEG_BLOCK != LABEL_GRID:
            raise ConfigError(
                f"patch={self.patch} must cut the {IMAGE_SIDE}-pixel image into "
                f"{LABEL_GRID // SEG_BLOCK}x{LABEL_GRID // SEG_BLOCK} patches, one per "
                f"{SEG_BLOCK}x{SEG_BLOCK} block of the {LABEL_GRID}x{LABEL_GRID} label grid"
            )
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} is not divisible by heads={self.heads}")
        if self.text_len < 3:
            raise ConfigError("text_len must fit BOS, one word and EOS")
