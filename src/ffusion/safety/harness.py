"""Fail-operational evaluation: run fault campaigns, measure degradation.

Each scenario corrupts raw samples with its fault list and evaluates the
model on whatever survives health triage. A Campaign prepares and encodes
each distinct per-modality input of one split once, so each scenario and
noise level runs only fusion and the heads. Single-modality faults must
never raise: the fusion core re-normalizes over the remaining channels
and the report records how much accuracy was retained. Only the
everything-failed scenario ends in the defined fusion error, which is
captured and reported as FAIL_SILENT rather than raised.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import Tensor
from ..errors import ConfigError, DataError, FusionError
from ..model import (
    MODALITIES,
    AvailabilityMask,
    FeatureBatch,
    ForwardResult,
    Metrics,
    TokenSequence,
    group_by_availability,
    stack_features,
)
from ..model.inputs import PREPARERS, assemble
from ..scene.commands import COMMANDS
from ..scene.dataset import Sample
from .faults import FaultSpec, inject_faults
from .independence import IndependenceReport, verify_independence

FAIL_SILENT = "FAIL_SILENT"
STATUS_OK = "ok"

NOMINAL = "nominal"
INDEPENDENCE_SAMPLES = 4
EVAL_CHUNK = 64


@dataclass(frozen=True)
class Scenario:
    """A named fault campaign applied uniformly to every sample."""

    name: str
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.strip():
            raise ConfigError(f"scenario name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "faults", tuple(self.faults))
        if self.name == NOMINAL and self.faults:
            raise ConfigError(f"the {NOMINAL} scenario is the fault-free baseline; "
                              f"it lists {len(self.faults)} fault(s)")

    def apply(self, samples: Sequence[Sample]) -> List[Sample]:
        return [inject_faults(s, self.faults) for s in samples]


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


def _retained(scenario_accuracy: float,
              nominal_accuracy: float) -> Optional[float]:
    if scenario_accuracy == nominal_accuracy:
        return 1.0
    if nominal_accuracy <= 0.0:
        return None  # ratio undefined against a zero baseline
    return scenario_accuracy / nominal_accuracy


# Faults name the depth sensor's modality lidar.
_FAULT_MODALITY = {"camera": "camera", "depth": "lidar", "text": "text"}


def _chunks(features: FeatureBatch) -> Iterator[Tuple[tuple, List[int]]]:
    """(availability pattern, rows of features) per inference batch: rows
    grouped by pattern, in sorted pattern order, at most EVAL_CHUNK each."""
    for pattern, rows in sorted(group_by_availability(features).items()):
        for start in range(0, len(rows), EVAL_CHUNK):
            yield pattern, rows[start:start + EVAL_CHUNK]


class Campaign:
    """One split's per-modality inputs under fault lists, each prepared and
    encoded once; the one owner of a split's inference.

    Faults on different modalities touch disjoint Sample fields, so a
    modality's input under a fault list depends only on that list's faults
    on the modality, in order: their tuple keys the input. Zero-sigma noise
    returns the sample itself, so it is left out of the key, and sigma 0
    reuses the nominal inputs. latents encodes each input once, and predict
    decodes its token rows. An evaluation of the same inputs, mask and
    scenario name runs once.
    """

    def __init__(self, network, samples: Sequence[Sample]):
        if not samples:
            raise DataError("cannot evaluate an empty split")
        self.network = network
        self.samples = list(samples)
        self._prepared = {}  # (modality, key) -> (inputs, health), a row per sample
        self._latents = {}  # (modality, key) -> encoder tokens per sample
        self._results = {}  # (keys, mask, scenario) -> (metrics, arbitration)

    @staticmethod
    def _keys(faults: Sequence[FaultSpec]) -> List[tuple]:
        return [(m, tuple(f for f in faults if f.modality == _FAULT_MODALITY[m]
                          and not (f.kind == "gaussian_noise" and f.magnitude == 0.0)))
                for m in MODALITIES]

    def features(self, faults: Sequence[FaultSpec] = ()) -> FeatureBatch:
        """The split's features under the faults, each modality prepared once."""
        keys = self._keys(faults)
        for m, key in keys:
            if (m, key) not in self._prepared:
                self._prepared[m, key] = PREPARERS[m](
                    [inject_faults(s, key) for s in self.samples], self.network.config)
        return assemble(self.samples, {m: self._prepared[m, key] for m, key in keys})

    def latents(self, faults: Sequence[FaultSpec] = (),
                modalities: Sequence[str] = MODALITIES) -> Dict[str, np.ndarray]:
        """Encoder tokens of every sample under the faults, per named
        modality: (n, T, d).

        An input not yet encoded runs through its branch once per _chunks
        batch in which its modality is available; rows where it is
        unavailable stay zero. A sample's tokens do not depend on the rest
        of its batch, so any later batching may gather its rows.
        """
        keys = dict(self._keys(faults))
        fresh = [m for m in modalities if (m, keys[m]) not in self._latents]
        if fresh:
            features = self.features(faults)
            for m in fresh:
                self._latents[m, keys[m]] = np.zeros(
                    (features.size, self.network.branch(m).tokens, self.network.config.d))
            for pattern, rows in _chunks(features):
                inputs = {m: getattr(features, m)[rows]
                          for m, ok in zip(MODALITIES, pattern) if ok and m in fresh}
                for seq in self.network.encode(inputs):
                    self._latents[seq.modality, keys[seq.modality]][rows] = seq.tokens.data
        return {m: self._latents[m, keys[m]] for m in modalities}

    def predict(self, faults: Sequence[FaultSpec] = (),
                mask: Optional[AvailabilityMask] = None
                ) -> Iterator[Tuple[List[int], ForwardResult]]:
        """Forward passes over the split under the faults; no parameter
        updates. Per _chunks batch, fusion and both heads run on its rows'
        tokens from latents for the modalities that its pattern and the mask
        leave. Yields (rows, result) per batch."""
        features = self.features(faults)
        latents = self.latents(faults, [m for m in MODALITIES if mask is None or mask[m]])
        for pattern, rows in _chunks(features):
            effective = self.network.availability(pattern, mask)
            tokens = [TokenSequence(m, Tensor.constant(latents[m][rows]))
                      for m in MODALITIES if effective[m]]
            yield rows, self.network.decode(tokens, effective)

    def evaluate(self, faults: Sequence[FaultSpec] = (),
                 mask: Optional[AvailabilityMask] = None, scenario: str = NOMINAL):
        """Metrics under the faults and mask, and the mean arbitration scores;
        no parameter updates. Aggregation is order-independent (sums, then
        one division)."""
        memo = (tuple(self._keys(faults)), mask, scenario)
        if memo not in self._results:
            features = self.features(faults)
            truth_cmd, truth_seg = features.command_ids, features.seg_labels
            pred_cmd = np.zeros_like(truth_cmd)
            pred_seg = np.zeros_like(truth_seg)
            arb = np.zeros((len(self.samples), len(MODALITIES)))
            total_loss = 0.0
            for rows, result in self.predict(faults, mask):
                pred_cmd[rows] = result.command_probs.data.argmax(axis=-1)
                pred_seg[rows] = result.seg_probs.data.argmax(axis=-1)
                arb[rows] = result.fused.arbitration.reshape(-1, len(MODALITIES))
                loss = self.network.loss(result, truth_cmd[rows], truth_seg[rows])
                total_loss += float(loss.item()) * len(rows)
            correct = pred_cmd == truth_cmd
            per_class = {}
            for cid, name in enumerate(COMMANDS):
                hits = truth_cmd == cid
                per_class[name] = float(correct[hits].mean()) if hits.any() else None
            metrics = Metrics(
                scenario=scenario,
                command_accuracy=float(correct.mean()),
                per_class=per_class,
                seg_accuracy=float((pred_seg == truth_seg).mean()),
                loss_curve=[total_loss / len(self.samples)],
            )
            self._results[memo] = metrics, arb.mean(axis=0)
        return self._results[memo]


def check_scenario_names(scenarios: Sequence[Scenario]) -> None:
    """A scenario list names the nominal baseline, and no name twice."""
    names = [s.name for s in scenarios]
    if NOMINAL not in names:
        raise ConfigError(f"scenario list must include the {NOMINAL} baseline")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"scenario names must be unique; {', '.join(repeated)} repeats")


def fail_operational_eval(campaign: Campaign,
                          scenarios: Optional[Sequence[Scenario]] = None) -> DegradationReport:
    """Evaluate every scenario against the nominal baseline.

    The nominal scenario's evaluation (one, through the campaign's memo) is
    both the baseline and its own row, and its features feed the
    independence check. A sample that fails health triage on every modality
    leaves no baseline: a DataError naming it.
    """
    chosen = list(default_scenarios() if scenarios is None else scenarios)
    check_scenario_names(chosen)
    features = campaign.features()
    groups = group_by_availability(features)
    dead = groups.get((False,) * len(MODALITIES))
    if dead:
        raise DataError(f"sample {features.sample_ids[dead[0]]} fails health triage "
                        f"on every modality, so the {NOMINAL} baseline cannot run")
    report = DegradationReport(nominal=campaign.evaluate()[0])
    for scenario in chosen:
        try:
            metrics, arbitration = campaign.evaluate(scenario.faults, scenario=scenario.name)
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

    # The first (up to) INDEPENDENCE_SAMPLES nominal samples that pass
    # health triage on every modality, so they stack into one batch.
    picked = groups.get((True,) * len(MODALITIES))
    if not picked:
        raise DataError("independence check needs a sample that passes "
                        "health triage on all three modalities; none does")
    report.independence = verify_independence(
        campaign.network, stack_features(features, picked[:INDEPENDENCE_SAMPLES]))
    return report


@dataclass(frozen=True)
class EnrichmentRow:
    """Accuracy at one noise level: full fusion vs the camera alone. A
    column in which some sample has no modality left reads None."""

    sigma: float
    fused_accuracy: Optional[float]
    camera_only_accuracy: Optional[float]


def _accuracy(campaign: Campaign, faults: Sequence[FaultSpec],
              mask: Optional[AvailabilityMask] = None) -> Optional[float]:
    try:
        return campaign.evaluate(faults, mask)[0].command_accuracy
    except FusionError:
        return None


def snr_enrichment_eval(campaign: Campaign, sigmas: Sequence[float],
                        seed: int = 0) -> List[EnrichmentRow]:
    """Accuracy vs noise for fused operation and camera-only operation.

    Noise is injected on both continuous sensors (camera and LiDAR);
    text has no additive-noise model and stays clean. The camera-only
    column masks depth and text at fusion time on the same noisy data.
    Every sigma is checked before any is evaluated. A column in which some
    sample has no modality left reads None, as a scenario that fails
    silently reads FAIL_SILENT.
    """
    for sigma in sigmas:
        if not (np.isfinite(sigma) and sigma >= 0):
            raise ConfigError(f"noise sigma must be >= 0, got {sigma}")
    rows = []
    camera_only = AvailabilityMask(camera=True, depth=False, text=False)
    for sigma in sigmas:
        faults = (FaultSpec("camera", "gaussian_noise", float(sigma), seed),
                  FaultSpec("lidar", "gaussian_noise", float(sigma), seed))
        rows.append(EnrichmentRow(
            sigma=float(sigma),
            fused_accuracy=_accuracy(campaign, faults),
            camera_only_accuracy=_accuracy(campaign, faults, camera_only),
        ))
    return rows
