"""The assembled multimodal network: branches, fusion core, task heads."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

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
from ffusion.model.encoders import MODALITIES, EncoderBranch, build_branches
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

    def forward(self, batch: FeatureBatch,
                mask: Optional[AvailabilityMask] = None) -> ForwardResult:
        """Encode available modalities, fuse, decode both tasks.

        Effective availability is the AND of the batch's health-derived
        availability and the optional scenario mask. Unavailable branches
        are not executed and contribute no tokens to fusion.
        """
        health_av = batch.availability
        scenario = mask or AvailabilityMask()
        effective = AvailabilityMask(
            camera=health_av[0] and scenario.camera,
            depth=health_av[1] and scenario.depth,
            text=health_av[2] and scenario.text,
        )
        inputs = {"camera": batch.camera, "depth": batch.depth, "text": batch.text}
        latents = [self.branches[m].encode(inputs[m]) for m in MODALITIES if effective[m]]
        fused = self.fusion.fuse(latents, effective)
        return ForwardResult(
            command_probs=self.command_head(fused),
            seg_probs=self.seg_head(fused),
            fused=fused,
        )

    def loss(self, result: ForwardResult, batch: FeatureBatch) -> Tensor:
        command = cross_entropy(result.command_probs, batch.command_ids)
        segmentation = cross_entropy(result.seg_probs, batch.seg_labels)
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
