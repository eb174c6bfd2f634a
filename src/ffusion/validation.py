"""Input validation helpers for the estimator's fit and predict inputs."""

from typing import Optional, Sequence

import numpy as np

from .errors import DataError
from .scene.commands import COMMANDS
from .scene.dataset import Sample


def ensure_samples(samples: Sequence[Sample]) -> list:
    """Return samples as a list, rejecting empty input and foreign types."""
    items = list(samples)
    if not items:
        raise DataError("expected at least one sample, got none")
    for i, item in enumerate(items):
        if not isinstance(item, Sample):
            raise DataError(f"item {i} is {type(item).__name__}, expected Sample")
    return items


def ensure_labels(y: Sequence, count: int) -> np.ndarray:
    """Command labels as an int id array. A label is a command name or an
    integer id (int or numpy integer, not bool) in range; anything else is a
    DataError naming its index and value."""
    labels = list(y)
    if len(labels) != count:
        raise DataError(f"got {len(labels)} labels for {count} samples")
    ids = np.empty(len(labels), dtype=np.int64)
    for i, label in enumerate(labels):
        if isinstance(label, str) and label in COMMANDS:
            ids[i] = COMMANDS.index(label)
        elif (isinstance(label, (int, np.integer)) and not isinstance(label, bool)
              and 0 <= label < len(COMMANDS)):
            ids[i] = label
        else:
            raise DataError(f"label {i} is {label!r}; expected one of {list(COMMANDS)} "
                            f"or an integer id in 0..{len(COMMANDS) - 1}")
    return ids


def ensure_fitted(estimator) -> None:
    """Raise unless fit() has set the estimator's trained network."""
    if getattr(estimator, "network_", None) is None:
        raise DataError(
            f"{type(estimator).__name__} is not fitted; call fit() first")


def availability_from_names(names: Optional[Sequence[str]]):
    """Build an availability mask from modality names to keep, None = all."""
    from .model.fusion import AvailabilityMask
    from .model.encoders import MODALITIES

    if names is None:
        return None
    if isinstance(names, str):
        raise DataError(f"a mask is an AvailabilityMask or a collection of modality "
                        f"names, got the string {names!r}")
    kept = set(names)
    unknown = kept - set(MODALITIES)
    if unknown:
        raise DataError(f"unknown modalities: {sorted(unknown)}")
    return AvailabilityMask(**{m: m in kept for m in MODALITIES})
