"""Independent per-modality encoders into the shared latent space.

Each branch owns a disjoint set of parameter paths (prefix encoder.<modality>)
so no failure of one sensor path can propagate into another through shared
weights. All branches emit width-d latent tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ffusion.autodiff import ParamStore, Rng, Tensor, add, embedding_lookup, linear
from ffusion.errors import ConfigError, ShapeError
from ffusion.model.config import IMAGE_SIDE, ModelConfig
from ffusion.model.layers import Linear, TransformerBlock, init_param
from ffusion.model.vocab import VOCABULARY

MODALITIES = ("camera", "depth", "text")

CAMERA_CHANNELS = 3
DEPTH_CHANNELS = 2  # depth value + validity mask


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """Cut (H, W, C) into (H/P * W/P) row-major patches of length P*P*C.

    Within a patch, flattening order is (row, col, channel).
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"patchify expects (H, W, C), got {arr.shape}")
    h, w, c = arr.shape
    if h == 0 or w == 0:
        raise ShapeError("patchify: empty image")
    if h % patch != 0 or w % patch != 0:
        raise ShapeError(f"image sides {h}x{w} not divisible by patch {patch}")
    rows, cols = h // patch, w // patch
    tiles = arr.reshape(rows, patch, cols, patch, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(tiles.reshape(rows * cols, patch * patch * c))


@dataclass
class TokenSequence:
    """Latent tokens of one modality."""

    modality: str
    tokens: Tensor  # (..., T, d)

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}")
        if self.tokens.shape[-2] < 1:
            raise ShapeError(f"{self.modality}: token sequence must have T >= 1")

    @property
    def length(self) -> int:
        return self.tokens.shape[-2]


class EncoderBranch:
    """Embedder plus L transformer blocks for one modality."""

    def __init__(self, store: ParamStore, rng: Rng, modality: str,
                 config: ModelConfig):
        if modality not in MODALITIES:
            raise ConfigError(f"unknown modality {modality!r}")
        self.modality = modality
        self.config = config
        self.prefix = f"encoder.{modality}"
        side = IMAGE_SIDE // config.patch
        if modality == "text":
            self.tokens = config.text_len
            self.table = init_param(store, rng, f"{self.prefix}.embed.table",
                                    (len(VOCABULARY), config.d), config.d)
        else:
            channels = CAMERA_CHANNELS if modality == "camera" else DEPTH_CHANNELS
            self.tokens = side * side
            self.patch_len = config.patch * config.patch * channels
            self.embed = Linear(store, rng, f"{self.prefix}.embed", self.patch_len, config.d)
        self.pos = init_param(store, rng, f"{self.prefix}.pos", (self.tokens, config.d), config.d)
        self.blocks = [
            TransformerBlock(store, rng, f"{self.prefix}.block{i}", config.d, config.heads)
            for i in range(config.blocks)
        ]

    def _embed_image(self, patches: np.ndarray) -> Tensor:
        arr = np.asarray(patches, dtype=np.float64)
        if arr.shape[-2:] != (self.tokens, self.patch_len):
            raise ShapeError(
                f"{self.modality}: expected patches (..., {self.tokens}, "
                f"{self.patch_len}), got {arr.shape}"
            )
        return linear(Tensor.constant(arr), self.embed.weight, self.embed.bias)

    def _embed_text(self, ids: np.ndarray) -> Tensor:
        arr = np.asarray(ids)
        if arr.shape[-1] != self.tokens:
            raise ShapeError(
                f"text ids must have length {self.tokens}, got shape {arr.shape}"
            )
        return embedding_lookup(self.table, arr)

    def encode(self, features: np.ndarray) -> TokenSequence:
        """Embed raw per-modality features and run the transformer stack.

        features: camera/depth patch matrices (..., T, P*P*C) or text ids
        (..., T_text). A leading batch axis is allowed everywhere.
        """
        if self.modality == "text":
            x = self._embed_text(features)
        else:
            x = self._embed_image(features)
        x = add(x, self.pos)
        for block in self.blocks:
            x, _ = block(x)
        return TokenSequence(modality=self.modality, tokens=x)


def build_branches(store: ParamStore, rng: Rng, config: ModelConfig) -> dict:
    """One EncoderBranch per modality, parameter paths pairwise disjoint."""
    return {m: EncoderBranch(store, rng, m, config) for m in MODALITIES}
