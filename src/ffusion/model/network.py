"""The assembled multimodal network: branches, fusion core, task heads."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Union

import numpy as np

from ffusion.autodiff import (
    ParamStore,
    Rng,
    Tensor,
    add,
    cross_entropy,
    load_checkpoint,
    save_checkpoint,
    scale,
)
from ffusion.model.config import ModelConfig
from ffusion.model.decoders import CommandHead, SegHead
from ffusion.model.encoders import MODALITIES, EncoderBranch, TokenSequence, build_branches
from ffusion.model.fusion import AvailabilityMask, FusedLatent, FusionCore
from ffusion.model.inputs import FeatureBatch

SEG_LOSS_WEIGHT = 0.5


@dataclass
class ForwardResult:
    command_probs: Tensor  # (..., 4)
    seg_probs: Tensor  # (..., 8, 8, 4)
    fused: FusedLatent


class FusionNetwork:
    """Three independent encoders, a fusion stack over the available
    modalities and two decoders reading only the fused latent."""

    def __init__(self, config: Optional[ModelConfig] = None, seed: int = 0):
        self.config = config or ModelConfig()
        self.seed = int(seed)
        self.store = ParamStore()
        rng = Rng(self.seed).derive("init")
        self.branches = build_branches(self.store, rng, self.config)
        self.fusion = FusionCore(self.store, rng, self.config)
        self.command_head = CommandHead(self.store, rng, self.config)
        self.seg_head = SegHead(self.store, rng, self.config)

    def branch(self, modality: str) -> EncoderBranch:
        return self.branches[modality]

    def availability(self, pattern: Sequence[bool],
                     mask: Optional[AvailabilityMask] = None) -> AvailabilityMask:
        """The AND of a batch's health-derived availability pattern and the
        optional scenario mask; FusionError when no modality remains."""
        scenario = mask or AvailabilityMask()
        return AvailabilityMask(**{
            m: available and scenario[m] for m, available in zip(MODALITIES, pattern)
        })

    def encode(self, inputs: Mapping[str, np.ndarray]) -> List[TokenSequence]:
        """Run each named modality's encoder branch on its inputs, in order."""
        return [self.branches[m].encode(x) for m, x in inputs.items()]

    def decode(self, latents: Sequence[TokenSequence],
               effective: AvailabilityMask) -> ForwardResult:
        """Fuse the given encoder tokens and decode both tasks."""
        fused = self.fusion.fuse(latents, effective)
        return ForwardResult(
            command_probs=self.command_head(fused),
            seg_probs=self.seg_head(fused),
            fused=fused,
        )

    def forward(self, batch: FeatureBatch,
                mask: Optional[AvailabilityMask] = None) -> ForwardResult:
        """Encode available modalities, fuse, decode both tasks.

        Unavailable branches (see availability) are not executed and
        contribute no tokens to fusion.
        """
        effective = self.availability(batch.availability, mask)
        latents = self.encode({m: getattr(batch, m) for m in MODALITIES if effective[m]})
        return self.decode(latents, effective)

    def loss(self, result: ForwardResult, command_ids: np.ndarray,
             seg_labels: np.ndarray) -> Tensor:
        command = cross_entropy(result.command_probs, command_ids)
        segmentation = cross_entropy(result.seg_probs, seg_labels)
        return add(command, scale(segmentation, SEG_LOSS_WEIGHT))

    def save(self, path: Union[str, Path]) -> None:
        save_checkpoint(self.store, path)

    def load(self, path: Union[str, Path]) -> None:
        self.store.load_state_dict(load_checkpoint(path))

    @classmethod
    def from_checkpoint(cls, path: Union[str, Path],
                        config: Optional[ModelConfig] = None) -> "FusionNetwork":
        net = cls(config=config)
        net.load(path)
        return net
