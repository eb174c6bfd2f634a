"""Run configuration: one JSON document that drives every subcommand.

A run is reproducible from its config alone, so the config must
round-trip losslessly through serialization and reject unknown keys
instead of silently ignoring typos.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from .errors import ConfigError
from .model import ModelConfig, TrainConfig
from .model.config import require_int, require_real
from .safety import Scenario, default_scenarios

CONFIG_FORMAT = "ffusion-config-v1"


def _require_keys(data: dict, allowed: set, context: str) -> None:
    extra = set(data) - allowed
    if extra:
        raise ConfigError(f"unknown {context} keys: {sorted(extra)}")


@dataclass(frozen=True)
class DatasetConfig:
    """Synthetic dataset size, seeding and split proportions."""

    count: int = 640
    seed: int = 12345
    ratios: Tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        require_int("dataset count", self.count, 1)
        require_int("dataset seed", self.seed, 0)
        if not isinstance(self.ratios, (list, tuple)) or len(self.ratios) != 3:
            raise ConfigError(f"split ratios must be a list of three numbers, got {self.ratios!r}")
        ratios = tuple(require_real("ratios entry", r) for r in self.ratios)
        if not (all(r > 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
            raise ConfigError(
                f"split ratios must be three positive numbers summing to 1, got {self.ratios}")
        object.__setattr__(self, "ratios", ratios)

    def to_dict(self) -> dict:
        return {"count": self.count, "seed": self.seed, "ratios": list(self.ratios)}

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetConfig":
        _require_keys(data, {"count", "seed", "ratios"}, "dataset")
        return cls(**data)


@dataclass(frozen=True)
class Paths:
    """Where artifacts live; everything a subcommand writes is listed here."""

    dataset_dir: str = "data"
    checkpoint: str = "out/model.ckpt"
    train_metrics: str = "out/train_metrics.json"
    eval_report: str = "out/eval_report.json"
    eval_summary: str = "out/eval_report.txt"
    report: str = "out/report.json"
    report_summary: str = "out/report.txt"
    timings: str = "out/timings.json"
    arch_graph: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "dataset_dir": self.dataset_dir,
            "checkpoint": self.checkpoint,
            "train_metrics": self.train_metrics,
            "eval_report": self.eval_report,
            "eval_summary": self.eval_summary,
            "report": self.report,
            "report_summary": self.report_summary,
            "timings": self.timings,
            "arch_graph": self.arch_graph,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Paths":
        _require_keys(data, set(cls().to_dict()), "paths")
        return cls(**data)


@dataclass(frozen=True)
class RunConfig:
    """Complete description of a pipeline run."""

    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    scenarios: Tuple[Scenario, ...] = field(
        default_factory=lambda: tuple(default_scenarios()))
    sigmas: Tuple[float, ...] = (0.0, 0.25, 0.5)
    paths: Paths = field(default_factory=Paths)

    def __post_init__(self):
        if not isinstance(self.sigmas, (list, tuple)):
            raise ConfigError(f"sigmas must be a list of numbers, got {self.sigmas!r}")
        sigmas = tuple(require_real("sigmas entry", s) for s in self.sigmas)
        if not all(0.0 <= s < float("inf") for s in sigmas):
            raise ConfigError(f"sigmas must be finite and >= 0, got {self.sigmas}")
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "scenarios", tuple(self.scenarios))

    def to_dict(self) -> dict:
        return {
            "format": CONFIG_FORMAT,
            "model": self.model.to_dict(),
            "training": self.training.to_dict(),
            "dataset": self.dataset.to_dict(),
            "scenarios": [s.to_dict() for s in self.scenarios],
            "sigmas": list(self.sigmas),
            "paths": self.paths.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        allowed = {"format", "model", "training", "dataset", "scenarios",
                   "sigmas", "paths"}
        _require_keys(data, allowed, "config")
        tag = data.get("format", CONFIG_FORMAT)
        if tag != CONFIG_FORMAT:
            raise ConfigError(f"unsupported config format {tag!r}")
        if "scenarios" in data:
            scenarios = tuple(Scenario.from_dict(s) for s in data["scenarios"])
        else:
            scenarios = tuple(default_scenarios())
        return cls(
            model=ModelConfig.from_dict(data.get("model", {})),
            training=TrainConfig.from_dict(data.get("training", {})),
            dataset=DatasetConfig.from_dict(data.get("dataset", {})),
            scenarios=scenarios,
            sigmas=data.get("sigmas", (0.0, 0.25, 0.5)),
            paths=Paths.from_dict(data.get("paths", {})),
        )

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(data)

    def save(self, path) -> None:
        Path(path).write_text(self.serialize(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.parse(Path(path).read_text(encoding="utf-8"))


def parse_override(text: str):
    """Parse a --set KEY=VALUE override; VALUE is JSON, else a bare string."""
    if "=" not in text:
        raise ConfigError(f"override must look like key=value, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override has an empty key: {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def apply_overrides(data: dict, overrides) -> dict:
    """Apply dotted-key overrides to a config dictionary."""
    for text in overrides:
        key, value = parse_override(text)
        parts = key.split(".")
        node = data
        for part in parts[:-1]:
            child = node.get(part)
            if not isinstance(child, dict):
                child = {}
                node[part] = child
            node = child
        node[parts[-1]] = value
    return data
