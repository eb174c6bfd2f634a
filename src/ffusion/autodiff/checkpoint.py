"""Versioned binary checkpoint format for parameter stores.

A checkpoint is an `ffusion.arrayfile` container tagged "FFUSION-CKPT v1",
one array per parameter named by its dotted path, sorted by path.
ParamStore.load_state_dict rejects non-finite parameter values.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Union

import numpy as np

from ffusion.arrayfile import read_arrays, write_arrays
from ffusion.autodiff.params import ParamStore
from ffusion.errors import CheckpointError, MissingInputError

MAGIC = "FFUSION-CKPT v1"


def save_checkpoint(source: Union[ParamStore, Mapping[str, np.ndarray]], path) -> None:
    """Write parameters to a checkpoint file, sorted by path."""
    if isinstance(source, ParamStore):
        params = {p: t.data for p, t in source.items()}
    else:
        params = {p: source[p] for p in sorted(source)}
    for name in params:
        if name in ("", "end") or any(ch.isspace() for ch in name):
            raise CheckpointError(f"parameter path {name!r} is empty, 'end' or holds whitespace")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_arrays(path, MAGIC, params)


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into {path: float64 array}."""
    if not Path(path).is_file():
        raise MissingInputError(f"checkpoint not found: {path}")
    return read_arrays(path, MAGIC, "checkpoint", CheckpointError)
