"""Linear probes: how much command information one modality carries.

A probe is a single linear layer trained on the frozen encoder's
mean-pooled tokens. High probe accuracy means the branch alone encodes
the label, which is what lets fusion stay useful when the other branches
die. A control probe on uniformly re-drawn labels should sit at chance.
"""

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..autodiff import (
    AdamConfig,
    AdamState,
    ParamStore,
    Rng,
    Tape,
    Tensor,
    adam_step,
    backward,
    ops,
)
from ..errors import DataError
from ..model import MODALITIES, FeatureSet, prepare_all
from ..scene.commands import COMMANDS

PROBE_EPOCHS = 50
PROBE_BATCH = 32
PROBE_SEED = 7


@dataclass(frozen=True)
class ProbeResult:
    modality: str
    accuracy: float
    shuffled_labels: bool


def pooled_embeddings(network, features: Sequence[FeatureSet],
                      modality: str) -> np.ndarray:
    """Mean-pooled frozen tokens of one branch over prepared features, (n, d)."""
    if modality not in MODALITIES:
        raise DataError(f"unknown modality {modality!r}")
    stacked = np.stack([getattr(f, modality) for f in features], axis=0)
    seq = network.branch(modality).encode(stacked)
    return seq.tokens.data.mean(axis=-2)


def _train_probe(train_x: np.ndarray, train_y: np.ndarray,
                 val_x: np.ndarray, val_y: np.ndarray, seed: int) -> float:
    rng = Rng(seed)
    store = ParamStore()
    d = train_x.shape[1]
    bound = 1.0 / np.sqrt(float(d))
    weight = store.register("probe.weight", Tensor(
        rng.derive("probe.weight").uniform(-bound, bound, size=(d, len(COMMANDS))),
        requires_grad=True))
    bias = store.register("probe.bias", Tensor(
        np.zeros(len(COMMANDS)), requires_grad=True))

    state = AdamState.for_store(store)
    config = AdamConfig()
    n = train_x.shape[0]
    for epoch in range(PROBE_EPOCHS):
        order = rng.derive(f"order/epoch{epoch}").permutation(n)
        for start in range(0, n, PROBE_BATCH):
            batch = order[start:start + PROBE_BATCH]
            x = Tensor.constant(train_x[batch])
            labels = train_y[batch]
            store.zero_grad()
            with Tape() as tape:
                logits = ops.linear(x, weight, bias)
                probs = ops.softmax(logits, axis=-1)
                loss = ops.cross_entropy(probs, labels)
            backward(tape, loss)
            adam_step(store, store.gradients(), state, config)

    scores = val_x @ weight.data + bias.data
    return float(np.mean(scores.argmax(axis=-1) == val_y))


def _probe(network, train_features: Sequence[FeatureSet],
           val_features: Sequence[FeatureSet], modality: str,
           shuffle_labels: bool, seed: int) -> ProbeResult:
    train_x = pooled_embeddings(network, train_features, modality)
    val_x = pooled_embeddings(network, val_features, modality)
    train_y = np.asarray([f.command_id for f in train_features], dtype=np.int64)
    val_y = np.asarray([f.command_id for f in val_features], dtype=np.int64)
    if shuffle_labels:
        # Uniform random labels break any label-feature association while
        # keeping the optimization identical; accuracy must drop to chance.
        train_y = Rng(seed).derive("labels").integers(
            0, len(COMMANDS), size=train_y.shape)
    accuracy = _train_probe(train_x, train_y, val_x, val_y, seed)
    return ProbeResult(modality=modality, accuracy=accuracy,
                       shuffled_labels=shuffle_labels)


def probe_modality(network, train_samples: Sequence, val_samples: Sequence,
                   modality: str, shuffle_labels: bool = False,
                   seed: int = PROBE_SEED) -> ProbeResult:
    """Train a probe for one modality and score it on the validation split."""
    return _probe(network, prepare_all(train_samples, network),
                  prepare_all(val_samples, network), modality,
                  shuffle_labels, seed)


def single_modality_probe(network, train_samples: Sequence,
                          val_samples: Sequence,
                          seed: int = PROBE_SEED) -> Dict[str, ProbeResult]:
    """Probe each modality; keys follow MODALITIES order.

    Both splits are prepared once and shared by every modality's probe.
    """
    train_features = prepare_all(train_samples, network)
    val_features = prepare_all(val_samples, network)
    return {m: _probe(network, train_features, val_features, m, False, seed)
            for m in MODALITIES}
