"""Sample-to-feature preparation: geometry, health checks, tokenization.

One preparer per modality reads only that modality's Sample fields. The
depth path reconstructs a dense map from the point cloud (project, apply
the sample's registration shift, densify) and feeds value/validity
channels, densifying the maps of all samples prepared in one call together;
the camera path sanitizes non-finite pixels after health triage; the text
path tokenizes against the fixed vocabulary. Failed modalities get zero
placeholder features and availability False.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ffusion.errors import DataError
from ffusion.geometry import DepthMap, densify_stack, project_point_cloud, translate_depth
from ffusion.model.config import ModelConfig
from ffusion.model.encoders import (
    CAMERA_CHANNELS,
    DEPTH_CHANNELS,
    IMAGE_SIDE,
    MODALITIES,
    patchify,
)
from ffusion.model.health import ModalityHealth, camera_health, depth_health, text_health
from ffusion.model.vocab import encode
from ffusion.scene.dataset import Sample
from ffusion.scene.render import DEFAULT_INTRINSICS

DEPTH_SCALE = 20.0  # scenes top out below 20 m; normalizes depth to ~[0, 1]
DENSIFY_CHUNK = 32  # maps per densify_stack call: fastest measured, small working set


@dataclass
class FeatureSet:
    """Per-sample encoder inputs plus health and label bookkeeping."""

    sample_id: str
    camera: np.ndarray  # (T_cam, P*P*3) patch matrix
    depth: np.ndarray  # (T_cam, P*P*2) patch matrix
    text: np.ndarray  # (T_text,) token ids
    health: Dict[str, ModalityHealth]
    command_id: int
    seg_labels: np.ndarray

    @property
    def availability(self) -> Tuple[bool, bool, bool]:
        return tuple(self.health[m].available for m in MODALITIES)


Prepared = Tuple[List[np.ndarray], List[ModalityHealth]]  # one modality's inputs, health


def _placeholder(config: ModelConfig, channels: int) -> np.ndarray:
    """Zero patches: the input of a modality that failed triage."""
    patch = config.patch
    return np.zeros(((IMAGE_SIDE // patch) ** 2, patch * patch * channels))


def prepare_camera(samples: Sequence[Sample], config: ModelConfig) -> Prepared:
    """Camera triage, then patches of the image with non-finite pixels zeroed."""
    values, health = [], []
    for sample in samples:
        rgb = np.asarray(sample.rgb, dtype=np.float64)
        status = camera_health(rgb)
        if status.available:
            values.append(patchify(np.where(np.isfinite(rgb), rgb, 0.0), config.patch))
        else:
            values.append(_placeholder(config, CAMERA_CHANNELS))
        health.append(status)
    return values, health


def prepare_depth(samples: Sequence[Sample], config: ModelConfig) -> Prepared:
    """Projection with the registration shift, depth triage, densified patches.

    The maps that pass triage are densified together, DENSIFY_CHUNK maps per
    densify_stack call as they accumulate (the last call takes the rest),
    which gives each map the same bits as densifying it alone.
    """
    values, health = [], []
    pending = []  # (index, sparse depth) awaiting densification
    for sample in samples:
        sparse = project_point_cloud(sample.cloud, DEFAULT_INTRINSICS)
        dx, dy = (int(v) for v in sample.registration_shift)
        if (dx, dy) != (0, 0):
            sparse = translate_depth(sparse, dx, dy)
        status = depth_health(sparse.values, sparse.valid)
        # Placeholder; replaced when the map is densified.
        values.append(_placeholder(config, DEPTH_CHANNELS))
        health.append(status)
        if status.available:
            pending.append((len(values) - 1, sparse))
            if len(pending) == DENSIFY_CHUNK:
                _densify_into(values, pending, config.patch)
                pending.clear()
    if pending:
        _densify_into(values, pending, config.patch)
    return values, health


def _densify_into(values: List[np.ndarray], pending: Sequence[Tuple[int, DepthMap]],
                  patch: int) -> None:
    """Densify the pending sparse maps in one call; store their depth patches."""
    dense, valid = densify_stack(
        np.stack([sparse.values for _, sparse in pending]),
        np.stack([sparse.valid for _, sparse in pending]),
    )
    channels = np.stack([dense / DEPTH_SCALE, valid.astype(np.float64)], axis=-1)
    for (index, _), image in zip(pending, channels):
        values[index] = patchify(image, patch)


def prepare_text(samples: Sequence[Sample], config: ModelConfig) -> Prepared:
    """Text triage, then token ids against the fixed vocabulary."""
    values, health = [], []
    for sample in samples:
        status = text_health(sample.text)
        if status.available:
            values.append(encode(sample.text, config.text_len))
        else:
            values.append(np.zeros(config.text_len, dtype=np.int64))
        health.append(status)
    return values, health


PREPARERS = {"camera": prepare_camera, "depth": prepare_depth, "text": prepare_text}


def assemble(samples: Sequence[Sample], prepared: Dict[str, Prepared]) -> List[FeatureSet]:
    """One FeatureSet per sample from each modality's prepared inputs of samples."""
    return [
        FeatureSet(
            sample_id=sample.sample_id,
            **{m: prepared[m][0][i] for m in MODALITIES},
            health={m: prepared[m][1][i] for m in MODALITIES},
            command_id=sample.command_id,
            seg_labels=np.asarray(sample.seg_labels, dtype=np.int64),
        )
        for i, sample in enumerate(samples)
    ]


def prepare_samples(samples: Sequence[Sample], config: ModelConfig) -> List[FeatureSet]:
    """Prepare encoder inputs for many samples, in order: each modality's
    preparer runs once over all of them."""
    samples = list(samples)
    return assemble(samples, {m: PREPARERS[m](samples, config) for m in MODALITIES})


def prepare_features(sample: Sample, config: ModelConfig) -> FeatureSet:
    """prepare_samples for one sample."""
    return prepare_samples([sample], config)[0]


@dataclass
class FeatureBatch:
    """Stacked features for samples sharing one availability pattern."""

    camera: np.ndarray  # (B, T_cam, P*P*3)
    depth: np.ndarray  # (B, T_cam, P*P*2)
    text: np.ndarray  # (B, T_text)
    command_ids: np.ndarray  # (B,)
    seg_labels: np.ndarray  # (B, 8, 8)
    availability: Tuple[bool, bool, bool]

    @property
    def size(self) -> int:
        return int(self.camera.shape[0])


def stack_features(features: Sequence[FeatureSet]) -> FeatureBatch:
    if not features:
        raise DataError("cannot stack an empty feature list")
    patterns = {f.availability for f in features}
    if len(patterns) != 1:
        raise DataError(f"mixed availability patterns in one batch: {sorted(patterns)}")
    return FeatureBatch(
        camera=np.stack([f.camera for f in features]),
        depth=np.stack([f.depth for f in features]),
        text=np.stack([f.text for f in features]),
        command_ids=np.asarray([f.command_id for f in features], dtype=np.int64),
        seg_labels=np.stack([f.seg_labels for f in features]),
        availability=patterns.pop(),
    )


def group_by_availability(features: Sequence[FeatureSet]) -> Dict[tuple, list]:
    """Indices of samples per availability pattern, insertion-ordered."""
    groups: Dict[tuple, list] = {}
    for i, f in enumerate(features):
        groups.setdefault(f.availability, []).append(i)
    return groups
