"""Encoder independence verification: structural and functional checks.

Structural: the three encoder branches must not share parameters, neither
by path prefix nor by aliased tensors, so no single weight is a common
cause across redundant channels. Functional: with a branch masked out of
fusion, every parameter of that branch must receive an exactly zero
gradient; any leakage would mean the "unavailable" channel still shapes
the output.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..autodiff import Tape, backward
from ..errors import DataError
from ..model import AvailabilityMask, FeatureBatch, MODALITIES


@dataclass
class IndependenceReport:
    """Pass/fail per check, with enough detail to locate a violation.

    all_pass is derived from the two checks; a stored all_pass that
    disagrees with them is invalid data.
    """

    structural_pass: bool
    shared_parameters: List[str]
    functional_pass: Dict[str, bool]
    gradient_leaks: Dict[str, Optional[str]] = field(default_factory=dict)
    all_pass: Optional[bool] = None

    def __post_init__(self):
        derived = self.structural_pass and all(self.functional_pass.values())
        if self.all_pass not in (None, derived):
            raise DataError("all_pass disagrees with structural_pass and functional_pass")
        self.all_pass = derived


def branch_paths(store, modality: str) -> List[str]:
    return [p for p in store.paths() if p.startswith(f"encoder.{modality}.")]


def check_structural(store) -> tuple:
    """Detect tensors aliased between encoder branches."""
    owners: Dict[int, List[str]] = {}
    for modality in MODALITIES:
        for path in branch_paths(store, modality):
            owners.setdefault(id(store[path]), []).append(path)
    shared = []
    for paths in owners.values():
        branches = {p.split(".")[1] for p in paths}
        if len(branches) > 1:
            shared.extend(sorted(paths))
    return not shared, sorted(shared)


def check_functional(network, batch: FeatureBatch) -> tuple:
    """Backpropagate with one branch masked; its gradients must be zero."""
    results: Dict[str, bool] = {}
    leaks: Dict[str, Optional[str]] = {}
    for modality in MODALITIES:
        mask = AvailabilityMask(**{m: m != modality for m in MODALITIES})
        network.store.zero_grad()
        with Tape() as tape:
            result = network.forward(batch, mask)
            loss = network.loss(result, batch.command_ids, batch.seg_labels)
        backward(tape, loss)
        leak = None
        for path in branch_paths(network.store, modality):
            grad = network.store[path].grad
            if grad is not None and np.any(grad != 0.0):
                leak = path
                break
        results[modality] = leak is None
        leaks[modality] = leak
    network.store.zero_grad()
    return results, leaks


def verify_independence(network, batch: FeatureBatch) -> IndependenceReport:
    """Run both checks; always returns a report, never raises."""
    structural_pass, shared = check_structural(network.store)
    functional, leaks = check_functional(network, batch)
    return IndependenceReport(
        structural_pass=structural_pass,
        shared_parameters=shared,
        functional_pass=functional,
        gradient_leaks=leaks,
    )
