"""Task decoders reading only the fused latent.

Both heads are functions of FusedLatent alone: the command head reads the
summary token, the segmentation head reads the camera-span tokens. With
the camera span empty the segmentation head has no tokens to project and
outputs its bias alone, so outputs remain valid distributions.
"""

from __future__ import annotations

import numpy as np

from ffusion.autodiff import ParamStore, Rng, Tensor, add, reshape, softmax, transpose
from ffusion.model.config import IMAGE_SIDE, SEG_BLOCK, ModelConfig
from ffusion.model.fusion import FusedLatent
from ffusion.model.layers import Linear
from ffusion.scene.commands import COMMANDS
from ffusion.scene.render import LABEL_GRID
from ffusion.scene.spec import CLASS_NAMES

N_COMMANDS = len(COMMANDS)
N_SEG_CLASSES = len(CLASS_NAMES)  # background + object classes


class CommandHead:
    """Linear d -> 4 on the fused summary, softmax over commands."""

    def __init__(self, store: ParamStore, rng: Rng, config: ModelConfig):
        self.proj = Linear(store, rng, "head.command", config.d, N_COMMANDS)

    def __call__(self, fused: FusedLatent) -> Tensor:
        return softmax(self.proj(fused.summary), axis=-1)


class SegHead:
    """Per-camera-token grid decoder.

    Each camera token covers an 8x8-pixel patch, i.e. a 2x2 block of label
    cells; a learned linear map d -> 2*2*4 expands the token into that block
    and the blocks assemble into the (8, 8, 4) class distribution grid.
    """

    def __init__(self, store: ParamStore, rng: Rng, config: ModelConfig):
        self.config = config
        self.side = IMAGE_SIDE // config.patch  # ModelConfig checks it tiles the label grid
        self.proj = Linear(
            store, rng, "head.segmentation",
            config.d, SEG_BLOCK * SEG_BLOCK * N_SEG_CLASSES,
        )

    def __call__(self, fused: FusedLatent) -> Tensor:
        # logits: (..., side*side, 2*2*classes)
        start, stop = fused.spans["camera"]
        if start < stop:
            logits = self.proj(fused.span_tokens("camera"))
        else:
            # No camera tokens: every patch's logits are the projection bias.
            shape = fused.tokens.shape[:-2] + (self.side * self.side, self.proj.bias.shape[0])
            logits = add(Tensor.constant(np.zeros(shape)), self.proj.bias)
        lead = logits.shape[:-2]
        n = len(lead)
        side, block = self.side, SEG_BLOCK
        grid = reshape(logits, lead + (side, side, block, block, N_SEG_CLASSES))
        # (pr, pc, i, j, c) -> (pr, i, pc, j, c) so rows become 2*pr+i.
        axes = tuple(range(n)) + (n, n + 2, n + 1, n + 3, n + 4)
        grid = transpose(grid, axes)
        grid = reshape(grid, lead + (LABEL_GRID, LABEL_GRID, N_SEG_CLASSES))
        return softmax(grid, axis=-1)
