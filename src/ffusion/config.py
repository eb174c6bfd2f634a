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
from .jsonfile import from_plain, to_plain
from .model import ModelConfig, TrainConfig
from .model.config import require_int, require_real
from .safety import Scenario, default_scenarios
from .safety.harness import check_scenario_names

CONFIG_FORMAT = "ffusion-config-v1"


@dataclass(frozen=True)
class DatasetConfig:
    """Synthetic dataset size, seeding and split proportions."""

    count: int = 640
    seed: int = 12345
    ratios: Tuple[float, ...] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        require_int("dataset count", self.count, 1)
        require_int("dataset seed", self.seed, 0)
        if len(self.ratios) != 3:
            raise ConfigError(f"split ratios must be a list of three numbers, got {self.ratios!r}")
        ratios = tuple(require_real("ratios entry", r) for r in self.ratios)
        if not (all(r > 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
            raise ConfigError(
                f"split ratios must be three positive numbers summing to 1, got {self.ratios}")
        object.__setattr__(self, "ratios", ratios)


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
        sigmas = tuple(require_real("sigmas entry", s) for s in self.sigmas)
        if not all(0.0 <= s < float("inf") for s in sigmas):
            raise ConfigError(f"sigmas must be finite and >= 0, got {self.sigmas}")
        if len(set(sigmas)) != len(sigmas):
            raise ConfigError(f"sigmas must not repeat a value, got {self.sigmas}")
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        try:
            check_scenario_names(self.scenarios)
        except ConfigError as exc:
            raise ConfigError(f"scenarios: {exc}") from None

    def to_dict(self) -> dict:
        return {"format": CONFIG_FORMAT, **to_plain(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        raw = dict(data)
        tag = raw.pop("format", CONFIG_FORMAT)
        if tag != CONFIG_FORMAT:
            raise ConfigError(f"unsupported config format {tag!r}")
        return from_plain(cls, raw, "")

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.serialize(), encoding="utf-8")


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
        for depth, part in enumerate(parts[:-1], start=1):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot set {key}: {'.'.join(parts[:depth])} "
                                  f"is {node!r}, not an object")
        node[parts[-1]] = value
    return data
