"""Training with batch-level modality dropout."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ffusion.autodiff import AdamState, Rng, Tape, adam_step, backward
from ffusion.errors import ConfigError, DataError, TrainingError
from ffusion.model.config import require_int, require_real
from ffusion.model.encoders import MODALITIES
from ffusion.model.fusion import AvailabilityMask
from ffusion.model.inputs import prepare_samples, stack_features
from ffusion.model.network import FusionNetwork
from ffusion.scene.dataset import Sample


@dataclass(frozen=True)
class TrainConfig:
    # Higher step sizes do not make the scene branches carry the command: at
    # 3e-4 and 1e-3 (default data, 10 epochs) the camera and depth probes
    # stay at 0.344, as at 3e-5; text alone carries it.
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 3e-5
    p_drop: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            require_int(name, getattr(self, name), low)
        rate = require_real("learning_rate", self.learning_rate)
        if not (np.isfinite(rate) and rate > 0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if not (0.0 <= require_real("p_drop", self.p_drop) <= 0.5):
            raise ConfigError(f"p_drop must lie in [0, 0.5], got {self.p_drop!r}")


@dataclass
class Metrics:
    """Evaluation results for one scenario, JSON-ready."""

    scenario: str
    command_accuracy: float
    per_class: Dict[str, Optional[float]]
    seg_accuracy: float
    loss_curve: List[float] = field(default_factory=list)

    def __post_init__(self):
        for name in ("command_accuracy", "seg_accuracy"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise TrainingError(f"{name} outside [0, 1]: {value}")


def _first_nonfinite_path(network: FusionNetwork) -> Optional[str]:
    for path, param in network.store.items():
        if not np.all(np.isfinite(param.data)):
            return path
        if param.grad is not None and not np.all(np.isfinite(param.grad)):
            return path
    return None


def train(network: FusionNetwork, samples: Sequence[Sample],
          config: Optional[TrainConfig] = None) -> List[float]:
    """Optimize the network in place; returns the per-batch loss curve.

    Each batch independently drops one uniformly chosen modality with
    probability p_drop (never more than one, so at least two remain).
    Deterministic given config.seed: the dropout stream consumes the same
    draws whether or not a drop triggers, so runs with different p_drop see
    identical batch orderings. A sample that fails health triage on any
    modality is invalid training data (DataError) and stops the run before
    the first step.
    """
    config = config or TrainConfig()
    if not samples:
        raise TrainingError("training requires a non-empty sample list")
    features = prepare_samples(samples, network.config)
    for sample_id, pattern in zip(features.sample_ids, features.patterns):
        failed = [m for m, ok in zip(MODALITIES, pattern) if not ok]
        if failed:
            raise DataError(f"training data must pass health triage; sample "
                            f"{sample_id} failed it on {', '.join(failed)}")
    rng = Rng(config.seed)
    drop_rng = rng.derive("modality-dropout")
    state = AdamState.for_store(network.store)
    curve: List[float] = []
    n = features.size
    for epoch in range(config.epochs):
        order = rng.derive(f"order/epoch{epoch}").permutation(n)
        for start in range(0, n, config.batch_size):
            batch = stack_features(features, order[start:start + config.batch_size])
            gate = float(drop_rng.uniform())
            choice = int(drop_rng.integers(0, len(MODALITIES)))
            mask = AvailabilityMask()
            if gate < config.p_drop:
                mask = AvailabilityMask(**{
                    m: (i != choice) for i, m in enumerate(MODALITIES)
                })
            with Tape() as tape:
                result = network.forward(batch, mask)
                loss = network.loss(result, batch.command_ids, batch.seg_labels)
            value = float(loss.item())
            if not np.isfinite(value):
                culprit = _first_nonfinite_path(network)
                detail = f"; first non-finite parameter: {culprit}" if culprit else ""
                raise TrainingError(
                    f"non-finite loss {value} in epoch {epoch}, "
                    f"batch {start // config.batch_size}{detail}"
                )
            network.store.zero_grad()
            backward(tape, loss)
            try:
                adam_step(network.store, network.store.gradients(), state,
                          config.learning_rate)
            except Exception as exc:
                raise TrainingError(
                    f"optimizer failure in epoch {epoch}, "
                    f"batch {start // config.batch_size}: {exc}"
                ) from exc
            curve.append(value)
    return curve
