"""Sample-to-feature preparation: geometry, health checks, tokenization.

The depth path reconstructs a dense map from the point cloud (project,
apply the sample's registration shift, densify) and feeds value/validity
channels, densifying the maps of all samples prepared in one call together;
the camera path sanitizes non-finite pixels after health triage;
the text path tokenizes against the fixed vocabulary. Failed modalities get
zero placeholder features and availability False.
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


def prepare_samples(samples: Sequence[Sample], config: ModelConfig) -> List[FeatureSet]:
    """Prepare encoder inputs for many samples, in order.

    Per sample: camera triage and patches, projection with the registration
    shift, depth triage, text triage and tokens. The depth maps that pass
    triage are densified together, DENSIFY_CHUNK maps per densify_stack call
    as they accumulate (the last call takes the rest), which gives each map
    the same bits as densifying it alone.
    """
    patch = config.patch
    tokens = (IMAGE_SIDE // patch) ** 2
    features: List[FeatureSet] = []
    pending = []  # (feature, sparse depth) awaiting densification
    for sample in samples:
        rgb = np.asarray(sample.rgb, dtype=np.float64)
        cam_health = camera_health(rgb)
        if cam_health.available:
            clean = np.where(np.isfinite(rgb), rgb, 0.0)
            cam_patches = patchify(clean, patch)
        else:
            cam_patches = np.zeros((tokens, patch * patch * CAMERA_CHANNELS))

        sparse = project_point_cloud(sample.cloud, DEFAULT_INTRINSICS)
        dx, dy = (int(v) for v in sample.registration_shift)
        if (dx, dy) != (0, 0):
            sparse = translate_depth(sparse, dx, dy)
        d_health = depth_health(sparse.values, sparse.valid)

        t_health = text_health(sample.text)
        if t_health.available:
            ids = encode(sample.text, config.text_len)
        else:
            ids = np.zeros(config.text_len, dtype=np.int64)

        feature = FeatureSet(
            sample_id=sample.sample_id,
            camera=cam_patches,
            # Placeholder; replaced below when depth passes triage.
            depth=np.zeros((tokens, patch * patch * DEPTH_CHANNELS)),
            text=ids,
            health={"camera": cam_health, "depth": d_health, "text": t_health},
            command_id=sample.command_id,
            seg_labels=np.asarray(sample.seg_labels, dtype=np.int64),
        )
        features.append(feature)
        if d_health.available:
            pending.append((feature, sparse))
            if len(pending) == DENSIFY_CHUNK:
                _densify_into(pending, patch)
                pending.clear()
    if pending:
        _densify_into(pending, patch)
    return features


def _densify_into(pending: Sequence[Tuple[FeatureSet, DepthMap]], patch: int) -> None:
    """Densify the pending sparse maps in one call; store their depth patches."""
    values, valid = densify_stack(
        np.stack([sparse.values for _, sparse in pending]),
        np.stack([sparse.valid for _, sparse in pending]),
    )
    channels = np.stack([values / DEPTH_SCALE, valid.astype(np.float64)], axis=-1)
    for (feature, _), image in zip(pending, channels):
        feature.depth = patchify(image, patch)


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
