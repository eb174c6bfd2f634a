"""Attention-based fusion of the available modalities' tokens.

Only available modalities enter the concatenated sequence; an unavailable
or absent modality gets an empty span. Fusing with a modality masked is
therefore the same computation as fusing with it physically absent.

The heads read only the summary token and the camera span, which lead the
sequence. Every block but the last runs on the whole sequence, because its
outputs are the last block's keys and values; the last block and the
final norm compute only that read prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ffusion.autodiff import ParamStore, Rng, Tensor, add, concat, reshape, slice_
from ffusion.errors import FusionError, ShapeError
from ffusion.model.config import ModelConfig
from ffusion.model.encoders import MODALITIES, TokenSequence
from ffusion.model.layers import LayerNorm, TransformerBlock, init_param, take_rows

FUSION_BLOCKS = 2


@dataclass(frozen=True)
class AvailabilityMask:
    """Per-modality availability; at least one modality must remain."""

    camera: bool = True
    depth: bool = True
    text: bool = True

    def __post_init__(self):
        if not (self.camera or self.depth or self.text):
            raise FusionError("no modality available: system-level fail signal")

    def __getitem__(self, modality: str) -> bool:
        if modality not in MODALITIES:
            raise FusionError(f"unknown modality {modality!r}")
        return getattr(self, modality)


@dataclass
class FusedLatent:
    """The fused rows the heads read, span bookkeeping and arbitration scores.

    tokens is (..., R, d): the summary token at index 0 followed by the
    camera span, R = spans["camera"][1] (the summary alone without a
    camera). spans maps modality -> (start, stop) into the token axis of
    the whole fused sequence ((start == stop) when the modality was
    unavailable or absent). rows computes any other rows of the fused
    output on request, through the same last-block call. arbitration holds
    per-sample scores (..., 3) in MODALITIES order: the summary token's
    final-block attention mass per span, head-averaged and renormalized
    excluding the summary's self-attention.
    """

    tokens: Tensor
    spans: Dict[str, Tuple[int, int]]
    arbitration: np.ndarray
    rows: Callable[[Tuple[int, int]], Tensor]

    @property
    def summary(self) -> Tensor:
        """The fused summary vector(s), shape (..., d)."""
        return reshape(take_rows(self.tokens, (0, 1)),
                       self.tokens.shape[:-2] + self.tokens.shape[-1:])

    def span_tokens(self, modality: str) -> Tensor:
        start, stop = self.spans[modality]
        if start == stop:
            raise FusionError(f"{modality} span is empty in this fused latent")
        if stop > self.tokens.shape[-2]:
            return self.rows((start, stop))
        return take_rows(self.tokens, (start, stop))


class FusionCore:
    """Learned summary token + modality type embeddings + L_f blocks."""

    def __init__(self, store: ParamStore, rng: Rng, config: ModelConfig):
        self.config = config
        self.cls = init_param(store, rng, "fusion.cls", (1, config.d), config.d)
        self.type_table = init_param(
            store, rng, "fusion.type", (len(MODALITIES), config.d), config.d
        )
        self.blocks = [
            TransformerBlock(store, rng, f"fusion.block{i}", config.d, config.heads)
            for i in range(FUSION_BLOCKS)
        ]
        self.norm = LayerNorm(store, rng, "fusion.norm", config.d)

    def _type_vector(self, index: int) -> Tensor:
        row = slice_(self.type_table, (slice(index, index + 1), slice(0, self.config.d)))
        return reshape(row, (self.config.d,))

    def fuse(self, latents: Sequence[TokenSequence], mask: AvailabilityMask) -> FusedLatent:
        """Concatenate summary token + available spans and run the fusion stack.

        latents lists the physically present modalities (any subset, each
        modality at most once). A present modality is left out of the
        sequence when the mask says so.
        """
        by_modality = {}
        for seq in latents:
            if seq.modality in by_modality:
                raise FusionError(f"duplicate modality {seq.modality!r} in fusion input")
            if seq.tokens.shape[-1] != self.config.d:
                raise ShapeError(
                    f"{seq.modality} tokens have width {seq.tokens.shape[-1]}, "
                    f"expected {self.config.d}"
                )
            by_modality[seq.modality] = seq
        if not by_modality:
            raise FusionError("fusion needs at least one token sequence")
        leads = {seq.tokens.shape[:-2] for seq in by_modality.values()}
        if len(leads) != 1:
            raise ShapeError(f"inconsistent batch shapes across modalities: {leads}")
        lead = leads.pop()

        parts = [add(Tensor.constant(np.zeros(lead + (1, self.config.d))), self.cls)]
        spans = {}
        cursor = 1
        for index, modality in enumerate(MODALITIES):
            seq = by_modality.get(modality)
            if seq is None or not mask[modality]:
                spans[modality] = (cursor, cursor)
                continue
            parts.append(add(seq.tokens, self._type_vector(index)))
            spans[modality] = (cursor, cursor + seq.length)
            cursor += seq.length
        if len(parts) == 1:
            raise FusionError("no modality available: system-level fail signal")

        context = concat(parts, axis=len(lead))
        for block in self.blocks[:-1]:
            context, _ = block(context)
        tokens, attn = self._final(context, (0, spans["camera"][1]))
        return FusedLatent(
            tokens=tokens,
            spans=spans,
            arbitration=self._arbitration(attn, spans),
            rows=lambda rows: self._final(context, rows)[0],
        )

    def _final(self, context: Tensor, rows: Tuple[int, int]) -> Tuple[Tensor, np.ndarray]:
        """The last block and the final norm on rows [start, stop) of context."""
        out, attn = self.blocks[-1](context, rows)
        return self.norm(out), attn

    @staticmethod
    def _arbitration(attn: np.ndarray, spans: Dict[str, Tuple[int, int]]) -> np.ndarray:
        # Summary-token query row, averaged over heads: (..., H, R, T) -> (..., T)
        per_key = attn[..., :, 0, :].mean(axis=-2)
        masses = np.stack(
            [per_key[..., start:stop].sum(axis=-1) for start, stop in
             (spans[m] for m in MODALITIES)],
            axis=-1,
        )
        return masses / masses.sum(axis=-1, keepdims=True)
