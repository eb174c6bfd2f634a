"""Sample container, image/label file formats and dataset build/load.

A dataset directory holds manifest.json plus five files per sample:
    rgb_<id>.ppm      ASCII PPM (P3), 8-bit
    cloud_<id>.pcd    sensor point cloud (FFUSION-PCD v1)
    depth_<id>.txt    rendered ground-truth depth (FFUSION-DEPTH v1)
    text_<id>.txt     instruction sentence, one line
    labels_<id>.txt   8x8 segmentation class grid (FFUSION-LABELS v1)

Building twice with the same seed produces byte-identical files. Samples
loaded from disk equal the ones synthesized in memory because rgb values
are quantized to the 8-bit grid before use.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ffusion.asciifile import header_int, parse_numbers, read_ascii
from ffusion.autodiff.rng import Rng
from ffusion.errors import DataError
from ffusion.geometry.depthmap import DepthMap, read_depth, write_depth
from ffusion.geometry.pointcloud import PointCloud, read_point_cloud, write_point_cloud
from ffusion.jsonfile import from_plain, read_json, to_plain
from ffusion.scene.commands import COMMAND_IDS, derive_command
from ffusion.scene.lidar import scan_from_hits
from ffusion.scene.render import (
    DEFAULT_INTRINSICS,
    LABEL_GRID,
    cast_rays,
    depth_from_hits,
    labels_from_hits,
    pixel_directions,
    rgb_from_hits,
)
from ffusion.scene.spec import CLASS_NAMES, generate_scene

MANIFEST_FORMAT = "FFUSION-DATASET v1"
LABELS_MAGIC = "FFUSION-LABELS v1"
SPLITS = ("train", "val", "test")
DEFAULT_RATIOS = (0.8, 0.1, 0.1)
SCAN_ROW_STEP = 2


@dataclass(eq=False)
class Sample:
    """One multimodal example: image, point cloud, text, labels.

    registration_shift is bookkeeping for injected miscalibration: it states
    how far the depth content is displaced from the image grid and is
    consumed by the input preparation pipeline's registration stage.
    """

    sample_id: str
    rgb: np.ndarray
    cloud: PointCloud
    depth: DepthMap
    text: str
    command: str
    seg_labels: np.ndarray
    registration_shift: tuple = (0, 0)

    def __post_init__(self):
        rgb = np.ascontiguousarray(np.asarray(self.rgb, dtype=np.float64))
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise DataError(f"rgb must be (h, w, 3), got {rgb.shape}")
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
class ManifestEntry:
    """One sample's manifest record; files names each kind's file in the dataset.

    A file name must be relative and stay inside the dataset directory when
    normalized; it is checked as written, so symlinks are not followed.
    """

    id: str
    split: str
    seed: int
    command: str
    files: Dict[str, str]
    registration_shift: Tuple[int, ...] = (0, 0)

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DataError(f"split {self.split!r} is not one of {SPLITS}")
        if len(self.registration_shift) != 2:
            raise DataError(f"registration_shift must be two integers, "
                            f"got {list(self.registration_shift)}")
        for kind in ("rgb", "cloud", "depth", "text", "labels"):
            name = self.files.get(kind)
            if name is None:
                raise DataError(f"files lacks a {kind} file")
            if os.path.isabs(name) or os.path.normpath(name).split(os.sep)[0] == os.pardir:
                raise DataError(f"{kind} file {name!r} is outside the dataset directory")


def quantize_rgb(rgb: np.ndarray) -> np.ndarray:
    """Snap to the 8-bit grid the PPM format stores."""
    return np.rint(np.clip(rgb, 0.0, 1.0) * 255.0) / 255.0


# Decimal text of every 8-bit level; also covers every label class id.
_LEVEL_TEXT = tuple(str(v) for v in range(256))


def write_ppm(rgb: np.ndarray, path) -> None:
    img = np.asarray(rgb, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DataError(f"rgb must be (h, w, 3), got {img.shape}")
    height, width = img.shape[:2]
    levels = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.int64)
    lines = ["P3", f"{width} {height}", "255"]
    rows = levels.reshape(height, -1).tolist()
    lines += [" ".join(map(_LEVEL_TEXT.__getitem__, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_ppm(path) -> np.ndarray:
    head = read_ascii(path).split(maxsplit=4)
    if not head or head[0] != "P3":
        raise DataError(f"unsupported image format in {path}")
    if len(head) < 4:
        raise DataError(f"malformed PPM header in {path}")
    width, height, maxval = (header_int(token, path) for token in head[1:4])
    if width < 1 or height < 1:
        raise DataError(f"PPM dimensions must be positive, got {width}x{height} in {path}")
    if maxval != 255:
        raise DataError(f"PPM maxval must be 255, got {maxval}")
    body = head[4] if len(head) == 5 else ""
    values = parse_numbers(body, np.int64, (height, width, 3), path)
    if values.min() < 0 or values.max() > 255:
        raise DataError("PPM values outside [0, 255]")
    return values / 255.0


def write_labels(labels: np.ndarray, path) -> None:
    grid = np.asarray(labels, dtype=np.int64)
    lines = [f"{LABELS_MAGIC} {grid.shape[1]} {grid.shape[0]}"]
    lines += [" ".join(map(_LEVEL_TEXT.__getitem__, row)) for row in grid.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_labels(path) -> np.ndarray:
    header, _, body = read_ascii(path).partition("\n")
    fields = header.split()
    if len(fields) != 4 or " ".join(fields[:2]) != LABELS_MAGIC:
        raise DataError(f"unsupported label header {header!r} in {path}")
    width, height = header_int(fields[2], path), header_int(fields[3], path)
    if width < 1 or height < 1:
        raise DataError(f"label dimensions must be positive, got {width}x{height} in {path}")
    grid = parse_numbers(body, np.int64, (height, width), path, line_width=width)
    if grid.min() < 0 or grid.max() >= len(CLASS_NAMES):
        raise DataError(f"labels outside the class palette in {path}")
    return grid


def synthesize_sample(sample_id: str, seed: int, row_step: int = SCAN_ROW_STEP) -> Sample:
    """Render one sample from its seed; rgb is pre-quantized to disk precision.

    The pixel grid is cast once; image, depth, labels and the scan are all
    derived from the same hits.
    """
    scene = generate_scene(seed)
    command, sentence = derive_command(scene)
    hits = cast_rays(scene, pixel_directions(DEFAULT_INTRINSICS))
    return Sample(
        sample_id=sample_id,
        rgb=quantize_rgb(rgb_from_hits(scene, hits, DEFAULT_INTRINSICS)),
        cloud=scan_from_hits(hits, DEFAULT_INTRINSICS, row_step),
        depth=depth_from_hits(hits, DEFAULT_INTRINSICS),
        text=sentence,
        command=command,
        seg_labels=labels_from_hits(scene, hits, DEFAULT_INTRINSICS),
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


def _sample_files(sample_id: str) -> dict:
    return {
        "rgb": f"rgb_{sample_id}.ppm",
        "cloud": f"cloud_{sample_id}.pcd",
        "depth": f"depth_{sample_id}.txt",
        "text": f"text_{sample_id}.txt",
        "labels": f"labels_{sample_id}.txt",
    }


def write_sample(sample: Sample, out_dir, files: dict) -> None:
    """Write a sample's five files into out_dir under the names in files."""
    out = Path(out_dir)
    write_ppm(sample.rgb, out / files["rgb"])
    write_point_cloud(sample.cloud, out / files["cloud"])
    write_depth(sample.depth, out / files["depth"])
    (out / files["text"]).write_text(sample.text + "\n", encoding="ascii")
    write_labels(sample.seg_labels, out / files["labels"])


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
    image = {key: getattr(DEFAULT_INTRINSICS, key)
             for key in ("width", "height", "fx", "fy", "cx", "cy")}
    return write_manifest(out, {"count": count, "seed": seed, "ratios": list(ratios),
                                "image": image, "scan_row_step": SCAN_ROW_STEP}, entries)


def write_manifest(out_dir, header: dict, entries: Sequence[ManifestEntry]) -> dict:
    """Write out_dir/manifest.json and return it: header, the format tag and
    entries as the samples list, keys sorted. A zero registration_shift is
    left out of its entry."""
    samples = [{key: value for key, value in to_plain(entry).items()
                if key != "registration_shift" or value != [0, 0]} for entry in entries]
    manifest = {**header, "format": MANIFEST_FORMAT, "samples": samples}
    (Path(out_dir) / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return manifest


def read_manifest(dataset_dir) -> dict:
    """The manifest.json under dataset_dir as plain JSON, less its format tag."""
    return read_json(Path(dataset_dir) / "manifest.json", "dataset manifest", MANIFEST_FORMAT)


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
    def path(kind):
        return os.path.join(dataset_dir, entry.files[kind])

    return Sample(
        sample_id=entry.id,
        rgb=read_ppm(path("rgb")),
        cloud=read_point_cloud(path("cloud")),
        depth=read_depth(path("depth")),
        text=read_ascii(path("text")).strip(),
        command=entry.command,
        seg_labels=read_labels(path("labels")),
        registration_shift=entry.registration_shift,
    )


def load_dataset(dataset_dir) -> dict:
    """Load every sample; returns {split: samples in manifest order}."""
    out = {name: [] for name in SPLITS}
    for entry in manifest_entries(read_manifest(dataset_dir), dataset_dir):
        out[entry.split].append(load_sample(dataset_dir, entry))
    return out
