"""Sample-to-feature preparation: geometry, health checks, tokenization.

One preparer per modality reads only that modality's Sample fields. The
depth path reconstructs a dense map from the point cloud (project,
densify) and feeds value/validity channels, densifying the maps of all
samples prepared in one call together;
the camera path sanitizes non-finite pixels after health triage; the text
path tokenizes against the fixed vocabulary. Each preparer fills one
array with a row per sample; a row whose modality fails triage stays zero
and reads unavailable. A FeatureBatch holds those arrays, and
stack_features gathers its rows into the batches that training runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ffusion.errors import DataError
from ffusion.geometry import DepthMap, densify_stack, project_point_cloud
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
from ffusion.scene.render import LABEL_GRID

DEPTH_SCALE = 20.0  # scenes top out below 20 m; normalizes depth to ~[0, 1]
DENSIFY_CHUNK = 32  # maps per densify_stack call: fastest measured, small working set


@dataclass
class FeatureBatch:
    """Prepared encoder inputs and labels, one row per sample, in order."""

    sample_ids: Tuple[str, ...]
    camera: np.ndarray  # (n, T_cam, P*P*3) patch matrices
    depth: np.ndarray  # (n, T_cam, P*P*2) patch matrices
    text: np.ndarray  # (n, T_text) token ids
    health: Dict[str, Tuple[ModalityHealth, ...]]  # per modality, one per row
    command_ids: np.ndarray  # (n,)
    seg_labels: np.ndarray  # (n, 8, 8)

    @property
    def size(self) -> int:
        return len(self.sample_ids)

    @property
    def patterns(self) -> List[Tuple[bool, bool, bool]]:
        """Each row's health-derived availability, in MODALITIES order."""
        return list(zip(*([h.available for h in self.health[m]] for m in MODALITIES)))

    @property
    def availability(self) -> Tuple[bool, bool, bool]:
        """The rows' one shared pattern; DataError when they have several."""
        patterns = set(self.patterns)
        if len(patterns) != 1:
            raise DataError(f"a batch needs one availability pattern; its rows have "
                            f"{sorted(patterns)}")
        return patterns.pop()


Prepared = Tuple[np.ndarray, Tuple[ModalityHealth, ...]]  # one modality's inputs, health


def _patches(count: int, config: ModelConfig, channels: int) -> np.ndarray:
    """Zero patch matrices for count samples; a row that fails triage stays zero."""
    patch = config.patch
    return np.zeros((count, (IMAGE_SIDE // patch) ** 2, patch * patch * channels))


def prepare_camera(samples: Sequence[Sample], config: ModelConfig) -> Prepared:
    """Camera triage, then patches of the image with non-finite pixels zeroed."""
    values, health = _patches(len(samples), config, CAMERA_CHANNELS), []
    for i, sample in enumerate(samples):
        rgb = np.asarray(sample.rgb, dtype=np.float64)
        status = camera_health(rgb)
        if status.available:
            values[i] = patchify(np.where(np.isfinite(rgb), rgb, 0.0), config.patch)
        health.append(status)
    return values, tuple(health)


def prepare_depth(samples: Sequence[Sample], config: ModelConfig) -> Prepared:
    """Projection of the point cloud, depth triage, densified patches.

    The maps that pass triage are densified together, DENSIFY_CHUNK maps per
    densify_stack call as they accumulate (the last call takes the rest),
    which gives each map the same bits as densifying it alone.
    """
    values, health = _patches(len(samples), config, DEPTH_CHANNELS), []
    pending = []  # (row, sparse depth) awaiting densification
    for i, sample in enumerate(samples):
        sparse = project_point_cloud(sample.cloud)
        status = depth_health(sparse)
        health.append(status)
        if status.available:
            pending.append((i, sparse))
            if len(pending) == DENSIFY_CHUNK:
                _densify_into(values, pending, config.patch)
                pending.clear()
    if pending:
        _densify_into(values, pending, config.patch)
    return values, tuple(health)


def _densify_into(values: np.ndarray, pending: Sequence[Tuple[int, DepthMap]],
                  patch: int) -> None:
    """Densify the pending sparse maps in one call; store their depth patches."""
    dense, valid = densify_stack(
        np.stack([sparse.values for _, sparse in pending]),
        np.stack([sparse.valid for _, sparse in pending]),
    )
    channels = np.stack([dense / DEPTH_SCALE, valid.astype(np.float64)], axis=-1)
    for (row, _), image in zip(pending, channels):
        values[row] = patchify(image, patch)


def prepare_text(samples: Sequence[Sample], config: ModelConfig) -> Prepared:
    """Text triage, then token ids against the fixed vocabulary."""
    values, health = np.zeros((len(samples), config.text_len), dtype=np.int64), []
    for i, sample in enumerate(samples):
        status = text_health(sample.text)
        if status.available:
            values[i] = encode(sample.text, config.text_len)
        health.append(status)
    return values, tuple(health)


PREPARERS = {"camera": prepare_camera, "depth": prepare_depth, "text": prepare_text}


def assemble(samples: Sequence[Sample], prepared: Dict[str, Prepared]) -> FeatureBatch:
    """The batch of samples from each modality's prepared inputs of them."""
    return FeatureBatch(
        sample_ids=tuple(s.sample_id for s in samples),
        **{m: prepared[m][0] for m in MODALITIES},
        health={m: prepared[m][1] for m in MODALITIES},
        command_ids=np.asarray([s.command_id for s in samples], dtype=np.int64),
        seg_labels=np.asarray([s.seg_labels for s in samples], dtype=np.int64).reshape(
            len(samples), LABEL_GRID, LABEL_GRID),
    )


def prepare_samples(samples: Sequence[Sample], config: ModelConfig) -> FeatureBatch:
    """Prepare encoder inputs for many samples, in order: each modality's
    preparer runs once over all of them."""
    samples = list(samples)
    return assemble(samples, {m: PREPARERS[m](samples, config) for m in MODALITIES})


def prepare_features(sample: Sample, config: ModelConfig) -> FeatureBatch:
    """prepare_samples for one sample: a one-row batch."""
    return prepare_samples([sample], config)


def stack_features(features: FeatureBatch, rows: Sequence[int]) -> FeatureBatch:
    """The given rows of features, in the given order, as one batch."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise DataError("cannot stack an empty row list")
    return FeatureBatch(
        sample_ids=tuple(features.sample_ids[i] for i in rows),
        **{m: getattr(features, m)[rows] for m in MODALITIES},
        health={m: tuple(features.health[m][i] for i in rows) for m in MODALITIES},
        command_ids=features.command_ids[rows],
        seg_labels=features.seg_labels[rows],
    )


def group_by_availability(features: FeatureBatch) -> Dict[tuple, list]:
    """Rows per availability pattern, insertion-ordered."""
    groups: Dict[tuple, list] = {}
    for i, pattern in enumerate(features.patterns):
        groups.setdefault(pattern, []).append(i)
    return groups
