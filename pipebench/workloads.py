"""The three benchmark workloads, each a closed loop over real ffusion commands.

A workload owns a work directory and runs every ffusion command inside it,
so the configs recorded in the artifacts hold the same relative paths on
every run and the digests compare across runs of one seed. ``setup`` builds
what every cycle needs and returns a digest of it; ``reset`` clears what a
cycle must not find; ``cycle`` is the timed body; ``check`` validates the
cycle's outputs and returns digests of its deterministic artifacts plus
exact counts, both of which must repeat on every cycle of a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from ffusion import cli
from ffusion.scene import dataset

from metrics import ROUNDTRIP, SAFETY, TRAIN


class CheckError(Exception):
    """A cycle's outputs are wrong, or differ from the run's first cycle."""


# The evaluated checkpoint's quality does not change the campaign's work.
CHECKPOINT_EPOCHS = 1


@dataclass(frozen=True)
class Size:
    train_count: int  # dataset samples for train_loop
    train_epochs: int
    eval_count: int  # dataset samples for safety_campaign
    roundtrip_count: int


SIZES = {
    "full": Size(train_count=80, train_epochs=10, eval_count=160,
                 roundtrip_count=80),
    "tiny": Size(train_count=20, train_epochs=1, eval_count=20, roundtrip_count=6),
}


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root: Path) -> tuple:
    """(sha256 over relative names and contents, total bytes, file count)."""
    digest = hashlib.sha256()
    total = files = 0
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
        total += len(data)
        files += 1
    return digest.hexdigest(), total, files


def _accuracy(value, what: str) -> None:
    if value is not None and not 0.0 <= value <= 1.0:
        raise CheckError(f"{what} = {value} lies outside [0, 1]")


def _metrics(metrics: dict, what: str) -> None:
    _accuracy(metrics["command_accuracy"], f"{what} command accuracy")
    _accuracy(metrics["seg_accuracy"], f"{what} segmentation accuracy")
    for name, value in metrics["per_class"].items():
        _accuracy(value, f"{what} {name} accuracy")


class Workload:
    name = ""

    def __init__(self, work: Path, dataset_seed: int, size: Size):
        self.work = Path(work)
        self.dataset_seed = dataset_seed
        self.size = size
        self.items_per_cycle = 0

    def _cli(self, command: str, count: int, *overrides: str) -> None:
        argv = [command, "--set", f"dataset.count={count}",
                "--set", f"dataset.seed={self.dataset_seed}"]
        for item in overrides:
            argv += ["--set", item]
        previous = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            os.chdir(previous)
        if code != 0:
            raise CheckError(f"ffusion {command} exited with code {code}")

    def clean(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def _train_split_size(self) -> int:
        manifest = dataset.read_manifest(self.work / "data")
        return sum(1 for entry in manifest["samples"] if entry["split"] == "train")

    def setup(self) -> str:
        raise NotImplementedError

    def reference_directory(self):
        """Where the reference loop writes files, or None: see reference.py."""
        return None

    def reset(self) -> None:
        """Untimed: clear what the next cycle must build afresh."""

    def cycle(self) -> None:
        raise NotImplementedError

    def check(self) -> tuple:
        raise NotImplementedError


class TrainLoop(Workload):
    name = TRAIN

    def setup(self) -> str:
        self._cli("generate", self.size.train_count)
        train_n = self._train_split_size()
        self.items_per_cycle = train_n * self.size.train_epochs
        self.steps = math.ceil(train_n / 32) * self.size.train_epochs
        return tree_digest(self.work / "data")[0]

    def cycle(self) -> None:
        self._cli("train", self.size.train_count,
                  f"training.epochs={self.size.train_epochs}")

    def check(self) -> tuple:
        out = self.work / "out"
        payload = json.loads((out / "train_metrics.json").read_text())
        curve = payload["train_loss_curve"]
        if len(curve) != self.steps:
            raise CheckError(f"loss curve has {len(curve)} points, "
                             f"expected {self.steps} steps")
        if not all(math.isfinite(v) and v > 0.0 for v in curve):
            raise CheckError("loss curve holds a non-finite or non-positive loss")
        _metrics(payload["val"], "val")
        curve_bytes = json.dumps(curve).encode()
        return {
            "checkpoint": file_digest(out / "model.ckpt"),
            "train_metrics.json": file_digest(out / "train_metrics.json"),
            "loss_curve": hashlib.sha256(curve_bytes).hexdigest(),
        }, {}


class SafetyCampaign(Workload):
    name = SAFETY

    def setup(self) -> str:
        count = self.size.eval_count
        self._cli("generate", count)
        self._cli("train", count, f"training.epochs={CHECKPOINT_EPOCHS}")
        self.items_per_cycle = count
        return tree_digest(self.work / "data")[0] + file_digest(
            self.work / "out" / "model.ckpt")

    def cycle(self) -> None:
        self._cli("eval", self.size.eval_count)

    def check(self) -> tuple:
        path = self.work / "out" / "eval_report.json"
        report = json.loads(path.read_text())
        degradation = report["degradation"]
        _metrics(degradation["nominal"], "nominal")
        for scenario in degradation["scenarios"]:
            if scenario["status"] != "ok":
                raise CheckError(f"scenario {scenario['name']} ended "
                                 f"{scenario['status']}: {scenario['error']}")
            _metrics(scenario["metrics"], scenario["name"])
        independence = degradation["independence"]
        if not (independence["structural_pass"]
                and all(independence["functional_pass"].values())):
            raise CheckError(f"encoder independence failed: {independence}")
        for probe in report["probes"]:
            _accuracy(probe["accuracy"], f"{probe['modality']} probe")
        for row in report["enrichment"]:
            _accuracy(row["fused_accuracy"], f"sigma {row['sigma']} fused")
            _accuracy(row["camera_only_accuracy"], f"sigma {row['sigma']} camera-only")
        return {"eval_report.json": file_digest(path)}, {}


class DatasetRoundtrip(Workload):
    name = ROUNDTRIP

    def setup(self) -> str:
        self.items_per_cycle = self.size.roundtrip_count
        self.loaded = None
        return ""

    def reset(self) -> None:
        shutil.rmtree(self.work / "data", ignore_errors=True)

    def reference_directory(self):
        # About a quarter of a cycle is spent creating and reading files.
        return self.work

    def cycle(self) -> None:
        self._cli("generate", self.size.roundtrip_count)
        self.loaded = dataset.load_dataset(self.work / "data")

    def check(self) -> tuple:
        root = self.work / "data"
        tree, nbytes, files = tree_digest(root)
        manifest = dataset.read_manifest(root)
        count = self.size.roundtrip_count
        if len(manifest["samples"]) != count or files != 5 * count + 1:
            raise CheckError(f"dataset holds {files} files for "
                             f"{len(manifest['samples'])} samples, expected {count}")
        read = hashlib.sha256()
        for split in dataset.SPLITS:
            expected = [e["id"] for e in manifest["samples"] if e["split"] == split]
            samples = self.loaded[split]
            if [s.sample_id for s in samples] != expected:
                raise CheckError(f"{split} split read back other samples than written")
            for s in samples:
                for array in (s.rgb, s.cloud.points, s.depth.values, s.seg_labels):
                    read.update(array.tobytes())
                read.update(f"{s.sample_id} {s.command} {s.text}\n".encode())
        return ({"dataset_tree": tree, "read_back": read.hexdigest()},
                {"dataset_bytes": nbytes, "dataset_samples": count})


WORKLOADS = {cls.name: cls for cls in (TrainLoop, SafetyCampaign, DatasetRoundtrip)}
