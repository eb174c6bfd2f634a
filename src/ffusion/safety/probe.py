"""Linear probes: how much command information one modality carries.

A probe is a single linear layer trained on the frozen encoder's
mean-pooled tokens. High probe accuracy means the branch alone encodes
the label, which is what lets fusion stay useful when the other branches
die. A control probe on uniformly re-drawn labels should sit at chance.

Probes that share a seed share their initial weights and batch order, so
any number of them train as one stacked softmax regression: slice i of
the stack follows, bit for bit, the steps a lone probe on input i takes.
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..autodiff import (
    AdamState,
    ParamStore,
    Rng,
    Tensor,
    adam_step,
    ops,
)
from ..errors import DataError
from ..model import MODALITIES
from ..scene.commands import COMMANDS
from .harness import Campaign

PROBE_EPOCHS = 50
PROBE_BATCH = 32
PROBE_SEED = 7
PROBE_LR = 1e-3


@dataclass(frozen=True)
class ProbeResult:
    modality: str
    accuracy: float
    shuffled_labels: bool


def pooled_embeddings(campaign: Campaign, modality: str) -> np.ndarray:
    """Mean-pooled frozen tokens of one branch over a campaign's split, (n, d).

    The tokens are the campaign's latents, so a row whose modality failed
    health triage pools to zeros.
    """
    if modality not in MODALITIES:
        raise DataError(f"unknown modality {modality!r}")
    return campaign.latents(modalities=(modality,))[modality].mean(axis=-2)


def _train_probes(train_x: np.ndarray, train_y: np.ndarray,
                  val_x: np.ndarray, val_y: np.ndarray, seed: int) -> List[float]:
    """Train M probes as one stack; returns their validation accuracies.

    train_x is (M, n, d) with labels train_y (M, n); val_x is (M, n_val, d)
    scored against val_y (n_val,). Each step makes, per slice, the numpy
    calls of ops.linear, ops.softmax and ops.cross_entropy, their backward
    rules for a unit loss gradient, and adam_step; Adam is elementwise, so
    every slice updates as if it trained alone.
    """
    rng = Rng(seed)
    m, n, d = train_x.shape
    bound = 1.0 / np.sqrt(float(d))
    init = rng.derive("probe.weight").uniform(-bound, bound, size=(d, len(COMMANDS)))
    store = ParamStore()
    weight = store.register("probe.weight", Tensor(
        np.stack([init] * m), requires_grad=True))
    bias = store.register("probe.bias", Tensor(
        np.zeros((m, len(COMMANDS))), requires_grad=True))

    state = AdamState.for_store(store)
    for epoch in range(PROBE_EPOCHS):
        order = rng.derive(f"order/epoch{epoch}").permutation(n)
        for start in range(0, n, PROBE_BATCH):
            batch = order[start:start + PROBE_BATCH]
            x = np.take(train_x, batch, axis=1)
            labels = np.take(train_y, batch, axis=1)[..., None]
            logits = np.matmul(x, weight.data)
            logits += bias.data[:, None]
            probs = ops._softmax_rows(logits, -1)
            picked = np.take_along_axis(probs, labels, axis=-1)
            floored = np.maximum(picked, ops.CE_PROB_FLOOR)
            dprobs = np.zeros_like(probs)
            np.put_along_axis(dprobs, labels, np.where(
                picked >= ops.CE_PROB_FLOOR, -1.0 / (len(batch) * floored), 0.0),
                axis=-1)
            dlogits = ops._softmax_grad(probs, dprobs, -1)
            adam_step(store, {
                "probe.weight": np.matmul(np.swapaxes(x, -1, -2), dlogits),
                "probe.bias": dlogits.sum(axis=1),
            }, state, PROBE_LR)

    scores = np.matmul(val_x, weight.data) + bias.data[:, None]
    return [float(np.mean(s.argmax(axis=-1) == val_y)) for s in scores]


def _probe(network, train_samples: Sequence, val_samples: Sequence,
           modalities: Sequence[str], shuffle_labels: bool, seed: int
           ) -> List[ProbeResult]:
    def embed(samples):
        # The campaign, with every modality's tokens, is dropped on return;
        # the probes read only the pooled rows.
        campaign = Campaign(network, samples)
        pooled = np.stack([pooled_embeddings(campaign, m) for m in modalities])
        return pooled, campaign.features().command_ids

    train_x, train_y = embed(train_samples)
    if shuffle_labels:
        # Uniform random labels break any label-feature association while
        # keeping the optimization identical; accuracy must drop to chance.
        train_y = Rng(seed).derive("labels").integers(
            0, len(COMMANDS), size=train_y.shape)
    val_x, val_y = embed(val_samples)
    accuracies = _train_probes(train_x, np.stack([train_y] * len(modalities)),
                               val_x, val_y, seed)
    return [ProbeResult(modality=m, accuracy=a, shuffled_labels=shuffle_labels)
            for m, a in zip(modalities, accuracies)]


def probe_modality(network, train_samples: Sequence, val_samples: Sequence,
                   modality: str, shuffle_labels: bool = False,
                   seed: int = PROBE_SEED) -> ProbeResult:
    """Train a probe for one modality and score it on the validation split."""
    return _probe(network, train_samples, val_samples, (modality,),
                  shuffle_labels, seed)[0]


def single_modality_probe(network, train_samples: Sequence,
                          val_samples: Sequence) -> Dict[str, ProbeResult]:
    """Probe each modality on the true labels; keys follow MODALITIES order.

    Each split is one Campaign, so it is prepared once, and the three probes
    train as one stack with PROBE_SEED.
    """
    return dict(zip(MODALITIES, _probe(network, train_samples, val_samples,
                                       MODALITIES, False, PROBE_SEED)))
