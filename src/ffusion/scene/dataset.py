"""Sample container, its files and dataset build/load.

A dataset directory holds manifest.json plus five files per sample. Four
are `ffusion.arrayfile` containers tagged "FFUSION-ARRAYS v1", each holding
one array:
    rgb_<id>.ffa      levels (S, S, 3), the 8-bit levels 0..255
    cloud_<id>.ffa    points (n, 3), the sensor point cloud
    depth_<id>.ffa    depth (S, S), rendered ground-truth depth, -1 where missing
    labels_<id>.ffa   labels (8, 8), segmentation class ids
and text_<id>.txt holds the instruction sentence, one ASCII line. S is
IMAGE_SIDE, the side of the camera's pixel grid (ffusion.geometry).

Building twice with the same seed produces byte-identical files. Samples
loaded from disk equal the ones synthesized in memory because rgb values
are quantized to the 8-bit grid before use.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from ffusion.arrayfile import read_arrays, write_arrays
from ffusion.autodiff.rng import Rng
from ffusion.errors import DataError
from ffusion.geometry.calibration import IMAGE_SIDE, PIXEL_RAYS
from ffusion.geometry.depthmap import DepthMap
from ffusion.geometry.pointcloud import PointCloud
from ffusion.jsonfile import from_plain, read_json, to_plain
from ffusion.scene.commands import COMMAND_IDS, derive_command
from ffusion.scene.lidar import SCAN_ROW_STEP, scan_from_hits
from ffusion.scene.render import (
    LABEL_GRID,
    cast_rays,
    depth_from_hits,
    labels_from_hits,
    rgb_from_hits,
)
from ffusion.scene.spec import CLASS_NAMES, generate_scene

MANIFEST_FORMAT = "FFUSION-DATASET v2"
ARRAYS_MAGIC = "FFUSION-ARRAYS v1"
SPLITS = ("train", "val", "test")
DEFAULT_RATIOS = (0.8, 0.1, 0.1)


@dataclass(eq=False)
class Sample:
    """One multimodal example on the IMAGE_SIDE x IMAGE_SIDE pixel grid:
    image, point cloud, rendered depth, text, labels."""

    sample_id: str
    rgb: np.ndarray
    cloud: PointCloud
    depth: DepthMap
    text: str
    command: str
    seg_labels: np.ndarray

    def __post_init__(self):
        grid = (IMAGE_SIDE, IMAGE_SIDE)
        rgb = np.ascontiguousarray(np.asarray(self.rgb, dtype=np.float64))
        if rgb.shape != grid + (3,):
            raise DataError(f"rgb must be {grid + (3,)}, got {rgb.shape}")
        if not isinstance(self.depth, DepthMap) or self.depth.values.shape != grid:
            raise DataError(f"depth must be a {grid} depth map")
        if self.command not in COMMAND_IDS:
            raise DataError(f"unknown command {self.command!r}")
        labels = np.asarray(self.seg_labels, dtype=np.int64)
        if labels.shape != (LABEL_GRID, LABEL_GRID):
            raise DataError(f"segmentation grid must be {LABEL_GRID}x{LABEL_GRID}, got {labels.shape}")
        if labels.min() < 0 or labels.max() >= len(CLASS_NAMES):
            raise DataError("segmentation labels outside the class palette")
        self.rgb = rgb
        self.seg_labels = labels

    @property
    def command_id(self) -> int:
        return COMMAND_IDS[self.command]


@dataclass(frozen=True)
class SampleFiles:
    """The name of each of a sample's five files in its dataset directory.

    A name must be relative and stay inside the dataset directory when
    normalized; it is checked as written, so symlinks are not followed.
    """

    rgb: str
    cloud: str
    depth: str
    text: str
    labels: str

    def __post_init__(self):
        for kind in fields(self):
            name = getattr(self, kind.name)
            if os.path.isabs(name) or os.path.normpath(name).split(os.sep)[0] == os.pardir:
                raise DataError(f"{kind.name} file {name!r} is outside the dataset directory")


@dataclass(frozen=True)
class ManifestEntry:
    """One sample's manifest record."""

    id: str
    split: str
    seed: int
    command: str
    files: SampleFiles

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DataError(f"split {self.split!r} is not one of {SPLITS}")


def _levels(rgb: np.ndarray) -> np.ndarray:
    """The 8-bit levels an rgb file stores."""
    return np.rint(np.clip(rgb, 0.0, 1.0) * 255.0)


def quantize_rgb(rgb: np.ndarray) -> np.ndarray:
    """Snap to the 8-bit grid the rgb file stores."""
    return _levels(rgb) / 255.0


def read_ascii(path) -> str:
    """Text of an ASCII file; a file that cannot be opened or holds a
    non-ASCII byte is a DataError naming it."""
    try:
        with open(path, encoding="ascii") as handle:
            return handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"non-ASCII byte at offset {exc.start} in {path}") from exc


def _read_array(path, kind: str, name: str, shape: tuple,
                top: Optional[int] = None) -> np.ndarray:
    """The one array, name, of the kind's file at path.

    shape gives each dimension, None for any length. Every value must be
    finite and, with top, an integer in [0, top]. Any fault is a DataError
    naming the file.
    """
    where = f"{kind} file {path}"
    arrays = read_arrays(path, ARRAYS_MAGIC, f"{kind} file", DataError)
    array = arrays.get(name)
    if array is None or len(arrays) != 1:
        raise DataError(f"{where} holds arrays {list(arrays)}, expected [{name!r}]")
    if len(array.shape) != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, array.shape)):
        raise DataError(f"{where}: {name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise DataError(f"{where}: {name} holds a non-finite value")
    if top is not None and not (
            0.0 <= array.min() and array.max() <= top and (np.rint(array) == array).all()):
        raise DataError(f"{where}: {name} holds a value that is not an integer in [0, {top}]")
    return array


def _read_depth(path) -> DepthMap:
    values = _read_array(path, "depth", "depth", (IMAGE_SIDE, IMAGE_SIDE))
    valid = values != -1.0
    if not (values[valid] > 0.0).all():
        raise DataError(f"depth file {path}: depth holds a value that is neither -1 nor positive")
    values[~valid] = 0.0
    return DepthMap(values, valid)


def synthesize_sample(sample_id: str, seed: int, row_step: int = SCAN_ROW_STEP) -> Sample:
    """Render one sample from its seed; rgb is pre-quantized to disk precision.

    The pixel grid is cast once; image, depth, labels and the scan are all
    derived from the same hits.
    """
    scene = generate_scene(seed)
    command, sentence = derive_command(scene)
    hits = cast_rays(scene, PIXEL_RAYS)
    return Sample(
        sample_id=sample_id,
        rgb=quantize_rgb(rgb_from_hits(scene, hits)),
        cloud=scan_from_hits(hits, row_step),
        depth=depth_from_hits(hits),
        text=sentence,
        command=command,
        seg_labels=labels_from_hits(scene, hits),
    )


def _split_sizes(count: int, ratios) -> dict:
    r = tuple(float(x) for x in ratios)
    if len(r) != 3 or any(x <= 0.0 for x in r) or abs(sum(r) - 1.0) > 1e-9:
        raise DataError(f"split ratios must be three positive numbers summing to 1, got {ratios}")
    n_val = int(count * r[1])
    n_test = int(count * r[2])
    n_train = count - n_val - n_test
    if n_train < 1:
        raise DataError(f"count {count} leaves no training samples")
    return {"train": n_train, "val": n_val, "test": n_test}


def _sample_files(sample_id: str) -> SampleFiles:
    return SampleFiles(rgb=f"rgb_{sample_id}.ffa", cloud=f"cloud_{sample_id}.ffa",
                       depth=f"depth_{sample_id}.ffa", text=f"text_{sample_id}.txt",
                       labels=f"labels_{sample_id}.ffa")


def write_sample(sample: Sample, out_dir, files: SampleFiles) -> None:
    """Write a sample's five files into out_dir under the names in files."""
    out = Path(out_dir)
    depth = sample.depth
    write_arrays(out / files.rgb, ARRAYS_MAGIC, {"levels": _levels(sample.rgb)})
    write_arrays(out / files.cloud, ARRAYS_MAGIC, {"points": sample.cloud.points})
    write_arrays(out / files.depth, ARRAYS_MAGIC,
                 {"depth": np.where(depth.valid, depth.values, -1.0)})
    (out / files.text).write_text(sample.text + "\n", encoding="ascii")
    write_arrays(out / files.labels, ARRAYS_MAGIC, {"labels": sample.seg_labels})


def build_dataset(out_dir, count: int, seed: int, ratios=DEFAULT_RATIOS) -> dict:
    """Generate `count` samples into out_dir and return the manifest.

    Every sample gets its own seed derived from (dataset seed, sample id),
    so splits are disjoint by construction and any sample can be rebuilt
    in isolation.
    """
    if count < 1:
        raise DataError(f"count must be positive, got {count}")
    sizes = _split_sizes(count, ratios)
    root = Rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    boundaries = []
    offset = 0
    for split in SPLITS:
        boundaries.append((split, offset, offset + sizes[split]))
        offset += sizes[split]
    entries = []
    for i in range(count):
        sample_id = f"{i:06d}"
        sample_seed = root.derive_seed(f"sample/{sample_id}")
        split = next(name for name, lo, hi in boundaries if lo <= i < hi)
        sample = synthesize_sample(sample_id, sample_seed)
        files = _sample_files(sample_id)
        write_sample(sample, out, files)
        entries.append(ManifestEntry(id=sample_id, split=split, seed=sample_seed,
                                     command=sample.command, files=files))
    return write_manifest(out, {"count": count, "seed": seed, "ratios": list(ratios)}, entries)


def write_manifest(out_dir, header: dict, entries: Sequence[ManifestEntry]) -> dict:
    """Write out_dir/manifest.json and return it: header, the format tag and
    entries as the samples list, keys sorted."""
    manifest = {**header, "format": MANIFEST_FORMAT,
                "samples": [to_plain(entry) for entry in entries]}
    (Path(out_dir) / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return manifest


def read_manifest(dataset_dir) -> dict:
    """The manifest.json under dataset_dir as plain JSON, less its format tag.

    A manifest of another format, such as a FFUSION-DATASET v1 one with its
    ASCII sample files, is a DataError that says to regenerate the dataset.
    """
    return read_json(Path(dataset_dir) / "manifest.json", "dataset manifest", MANIFEST_FORMAT,
                     hint="; regenerate the dataset with `ffusion generate`")


def manifest_entries(manifest: dict, dataset_dir) -> List[ManifestEntry]:
    """The sample entries of a manifest read from dataset_dir, in order.

    A malformed entry, or an id listed twice, is a DataError naming the
    manifest file and the key path at fault.
    """
    where = f"dataset manifest {Path(dataset_dir) / 'manifest.json'}"
    entries = from_plain(List[ManifestEntry], manifest.get("samples"), f"{where}: samples",
                         DataError)
    seen = set()
    for entry in entries:
        if entry.id in seen:
            raise DataError(f"{where} lists sample id {entry.id!r} twice")
        seen.add(entry.id)
    return entries


def load_sample(dataset_dir, entry: ManifestEntry) -> Sample:
    files = entry.files
    path = functools.partial(os.path.join, dataset_dir)
    return Sample(
        sample_id=entry.id,
        rgb=_read_array(path(files.rgb), "rgb", "levels", (IMAGE_SIDE, IMAGE_SIDE, 3),
                        top=255) / 255.0,
        cloud=PointCloud(_read_array(path(files.cloud), "cloud", "points", (None, 3))),
        depth=_read_depth(path(files.depth)),
        text=read_ascii(path(files.text)).strip(),
        command=entry.command,
        seg_labels=_read_array(path(files.labels), "labels", "labels",
                               (LABEL_GRID, LABEL_GRID), top=len(CLASS_NAMES) - 1
                               ).astype(np.int64),
    )


def load_dataset(dataset_dir) -> dict:
    """Load every sample; returns {split: samples in manifest order}."""
    out = {name: [] for name in SPLITS}
    for entry in manifest_entries(read_manifest(dataset_dir), dataset_dir):
        out[entry.split].append(load_sample(dataset_dir, entry))
    return out
