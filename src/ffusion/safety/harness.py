"""Fail-operational evaluation: run fault campaigns, measure degradation.

Each scenario corrupts raw samples with its fault list and evaluates the
model on whatever survives health triage. Single-modality faults must
never raise: the fusion core re-normalizes over the remaining channels
and the report records how much accuracy was retained. Only the
everything-failed scenario ends in the defined fusion error, which is
captured and reported as FAIL_SILENT rather than raised.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, DataError, FaultError, FusionError
from ..model import (
    AvailabilityMask,
    Metrics,
    evaluate,
    prepare_all,
    stack_features,
)
from ..model.config import from_plain, to_plain
from ..scene.dataset import Sample
from .faults import FaultSpec, inject_faults
from .independence import IndependenceReport, verify_independence

FAIL_SILENT = "FAIL_SILENT"
STATUS_OK = "ok"

NOMINAL = "nominal"
INDEPENDENCE_SAMPLES = 4


@dataclass(frozen=True)
class Scenario:
    """A named fault campaign applied uniformly to every sample."""

    name: str
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.strip():
            raise ConfigError(f"scenario name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.faults, (list, tuple)):
            raise ConfigError(f"scenario faults must be a list, got {self.faults!r}")
        object.__setattr__(self, "faults", tuple(self.faults))

    def apply(self, samples: Sequence[Sample]) -> List[Sample]:
        return [inject_faults(s, self.faults) for s in samples]

    @classmethod
    def from_dict(cls, raw, where: str) -> "Scenario":
        """Read one config scenario; where is its path, e.g. scenarios[0]."""
        if isinstance(raw, dict) and isinstance(raw.get("faults"), list):
            faults = [from_plain(FaultSpec, f, f"{where}.faults[{i}]", FaultError)
                      for i, f in enumerate(raw["faults"])]
            raw = {**raw, "faults": faults}
        return from_plain(cls, raw, where)


def default_scenarios() -> List[Scenario]:
    """Nominal baseline plus the five standard single-sensor campaigns."""
    return [
        Scenario(NOMINAL),
        Scenario("camera_blackout", (FaultSpec("camera", "blackout"),)),
        Scenario("lidar_blackout", (FaultSpec("lidar", "blackout"),)),
        Scenario("text_blackout", (FaultSpec("text", "blackout"),)),
        Scenario("camera_noise", (FaultSpec("camera", "gaussian_noise", 0.5),)),
        Scenario("lidar_dropout", (FaultSpec("lidar", "partial_dropout", 0.5),)),
    ]


@dataclass
class ScenarioResult:
    """Outcome of one scenario: metrics when the pipeline ran, else the
    captured fusion error."""

    name: str
    status: str
    metrics: Optional[Metrics] = None
    arbitration: Optional[List[float]] = None
    retained_accuracy: Optional[float] = None
    error: Optional[str] = None


@dataclass
class DegradationReport:
    """Fault campaign results relative to the nominal baseline."""

    nominal: Metrics
    scenarios: List[ScenarioResult] = field(default_factory=list)
    independence: Optional[IndependenceReport] = None

    def result(self, name: str) -> ScenarioResult:
        for item in self.scenarios:
            if item.name == name:
                return item
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "nominal": to_plain(self.nominal),
            "scenarios": to_plain(self.scenarios),
            "independence": None if self.independence is None
            else self.independence.to_dict(),
        }


def _retained(scenario_accuracy: float,
              nominal_accuracy: float) -> Optional[float]:
    if scenario_accuracy == nominal_accuracy:
        return 1.0
    if nominal_accuracy <= 0.0:
        return None  # ratio undefined against a zero baseline
    return scenario_accuracy / nominal_accuracy


def fail_operational_eval(network, samples: Sequence[Sample],
                          scenarios: Optional[Sequence[Scenario]] = None,
                          check_independence: bool = True) -> DegradationReport:
    """Evaluate every scenario against the nominal baseline.

    Each scenario's samples are prepared once; the nominal scenario's
    evaluation is both the baseline and its own row, and its features feed
    the independence check.
    """
    chosen = list(default_scenarios() if scenarios is None else scenarios)
    names = [s.name for s in chosen]
    if NOMINAL not in names:
        raise ConfigError("scenario list must include the nominal baseline")
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique")
    if not samples:
        raise ConfigError("cannot evaluate an empty split")

    nominal_features = prepare_all(chosen[names.index(NOMINAL)].apply(samples),
                                   network)
    nominal = evaluate(network, samples, scenario=NOMINAL,
                       features=nominal_features)

    report = DegradationReport(nominal=nominal[0])
    for scenario in chosen:
        if scenario.name == NOMINAL:
            metrics, arbitration = nominal
        else:
            try:
                metrics, arbitration = evaluate(
                    network, samples, scenario=scenario.name,
                    features=prepare_all(scenario.apply(samples), network))
            except FusionError as exc:
                report.scenarios.append(ScenarioResult(
                    name=scenario.name, status=FAIL_SILENT, error=str(exc)))
                continue
        report.scenarios.append(ScenarioResult(
            name=scenario.name,
            status=STATUS_OK,
            metrics=metrics,
            arbitration=[float(v) for v in arbitration],
            retained_accuracy=_retained(metrics.command_accuracy,
                                        report.nominal.command_accuracy),
        ))

    if check_independence:
        # The first (up to) INDEPENDENCE_SAMPLES nominal samples that pass
        # health triage on every modality, so they stack into one batch.
        picked = [f for f in nominal_features if all(f.availability)]
        if not picked:
            raise DataError("independence check needs a sample that passes "
                            "health triage on all three modalities; none does")
        report.independence = verify_independence(
            network, stack_features(picked[:INDEPENDENCE_SAMPLES]))
    return report


@dataclass(frozen=True)
class EnrichmentRow:
    """Accuracy at one noise level: full fusion vs the camera alone."""

    sigma: float
    fused_accuracy: float
    camera_only_accuracy: float


def snr_enrichment_eval(network, samples: Sequence[Sample],
                        sigmas: Sequence[float],
                        seed: int = 0) -> List[EnrichmentRow]:
    """Accuracy vs noise for fused operation and camera-only operation.

    Noise is injected on both continuous sensors (camera and LiDAR);
    text has no additive-noise model and stays clean. The camera-only
    column masks depth and text at fusion time on the same noisy data.
    """
    if not samples:
        raise ConfigError("cannot evaluate an empty split")
    rows = []
    camera_only = AvailabilityMask(camera=True, depth=False, text=False)
    for sigma in sigmas:
        if not (np.isfinite(sigma) and sigma >= 0):
            raise ConfigError(f"noise sigma must be >= 0, got {sigma}")
        faults = (FaultSpec("camera", "gaussian_noise", float(sigma), seed),
                  FaultSpec("lidar", "gaussian_noise", float(sigma), seed))
        noisy = prepare_all([inject_faults(s, faults) for s in samples], network)
        fused = evaluate(network, samples, features=noisy)[0]
        alone = evaluate(network, samples, camera_only, features=noisy)[0]
        rows.append(EnrichmentRow(
            sigma=float(sigma),
            fused_accuracy=fused.command_accuracy,
            camera_only_accuracy=alone.command_accuracy,
        ))
    return rows
