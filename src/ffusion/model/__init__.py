"""Multimodal transformer: encoders, fusion, decoders, training."""

from ffusion.model.config import ModelConfig
from ffusion.model.decoders import (
    N_COMMANDS,
    N_SEG_CLASSES,
    CommandHead,
    SegHead,
)
from ffusion.model.encoders import (
    MODALITIES,
    EncoderBranch,
    TokenSequence,
    build_branches,
    patchify,
)
from ffusion.model.fusion import (
    FUSION_BLOCKS,
    AvailabilityMask,
    FusedLatent,
    FusionCore,
)
from ffusion.model.health import (
    DEGRADED,
    FAILED,
    NOMINAL,
    ModalityHealth,
    camera_health,
    depth_health,
    text_health,
)
from ffusion.model.inputs import (
    DEPTH_SCALE,
    FeatureBatch,
    group_by_availability,
    prepare_features,
    prepare_samples,
    stack_features,
)
from ffusion.model.layers import (
    LayerNorm,
    Linear,
    TransformerBlock,
    init_param,
)
from ffusion.model.network import ForwardResult, FusionNetwork, SEG_LOSS_WEIGHT
from ffusion.model.training import Metrics, TrainConfig, train
from ffusion.model.vocab import BOS_ID, EOS_ID, PAD_ID, UNK_ID

__all__ = [
    "AvailabilityMask",
    "BOS_ID",
    "CommandHead",
    "DEGRADED",
    "DEPTH_SCALE",
    "EOS_ID",
    "EncoderBranch",
    "FAILED",
    "FUSION_BLOCKS",
    "FeatureBatch",
    "ForwardResult",
    "FusedLatent",
    "FusionCore",
    "FusionNetwork",
    "LayerNorm",
    "Linear",
    "Metrics",
    "ModalityHealth",
    "ModelConfig",
    "MODALITIES",
    "N_COMMANDS",
    "N_SEG_CLASSES",
    "NOMINAL",
    "PAD_ID",
    "SEG_LOSS_WEIGHT",
    "SegHead",
    "TokenSequence",
    "TrainConfig",
    "TransformerBlock",
    "UNK_ID",
    "build_branches",
    "camera_health",
    "depth_health",
    "group_by_availability",
    "init_param",
    "patchify",
    "prepare_features",
    "prepare_samples",
    "stack_features",
    "text_health",
    "train",
]
