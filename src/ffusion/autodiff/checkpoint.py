"""Versioned binary checkpoint format for parameter stores.

Layout (bytes):
    line "FFUSION-CKPT v1"        magic and version
    line "<count>"                number of parameters
    count lines "<path> <d0> ..." dotted path then shape, sorted by path
    line "end"                    header terminator
    raw data                      little-endian float64, concatenated in
                                  header order, row-major

Paths contain no whitespace. A scalar parameter lists no dimensions. The
count and every dimension are plain decimal digits. Round-trips are
bit-exact. ParamStore.load_state_dict rejects non-finite parameter values.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from ffusion.autodiff.params import ParamStore
from ffusion.errors import CheckpointError, MissingInputError

MAGIC = "FFUSION-CKPT v1"


def save_checkpoint(source: Union[ParamStore, Mapping[str, np.ndarray]], path) -> None:
    """Write parameters to a checkpoint file, sorted by path."""
    if isinstance(source, ParamStore):
        entries = [(p, t.data) for p, t in source.items()]
    else:
        entries = [(p, np.asarray(source[p], dtype=np.float64)) for p in sorted(source)]
    for name, _ in entries:
        if any(ch.isspace() for ch in name):
            raise CheckpointError(f"parameter path contains whitespace: {name!r}")
    header = [MAGIC, str(len(entries))]
    for name, arr in entries:
        dims = " ".join(str(d) for d in arr.shape)
        header.append(f"{name} {dims}".rstrip())
    header.append("end")
    blob = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in entries)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes("\n".join(header).encode("ascii") + b"\n" + blob)


def _header_int(token: str, what: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise CheckpointError(f"checkpoint {what} {token!r} is not a decimal integer")
    return int(token)


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into {path: float64 array}."""
    if not Path(path).is_file():
        raise MissingInputError(f"checkpoint not found: {path}")
    raw = Path(path).read_bytes()
    head, sep, rest = raw.partition(b"\nend\n")
    if not sep:
        raise CheckpointError("checkpoint header is missing its end marker")
    lines = head.decode("ascii", errors="replace").split("\n")
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"unsupported checkpoint format: {lines[0][:40]!r}")
    if len(lines) < 2:
        raise CheckpointError("checkpoint is missing its parameter count")
    count = _header_int(lines[1], "parameter count")
    specs = lines[2:]
    if len(specs) != count:
        raise CheckpointError(f"checkpoint lists {len(specs)} parameters, expected {count}")
    params: dict = {}
    offset = 0
    for line in specs:
        fields = line.split()
        if not fields:
            raise CheckpointError("empty parameter line in checkpoint header")
        name = fields[0]
        if name in params:
            raise CheckpointError(f"duplicate parameter path: {name!r}")
        shape = tuple(_header_int(d, f"dimension of {name!r}") for d in fields[1:])
        # Python ints: a product of huge dimensions cannot wrap before this check.
        nbytes = math.prod(shape) * 8
        if nbytes > len(rest) - offset:
            raise CheckpointError(f"checkpoint data truncated at parameter {name!r}")
        chunk = rest[offset:offset + nbytes]
        try:
            params[name] = np.frombuffer(chunk, dtype="<f8").reshape(shape).astype(np.float64)
        except ValueError as exc:  # more dimensions than numpy supports
            raise CheckpointError(f"bad shape on parameter line {line!r}") from exc
        offset += nbytes
    if offset != len(rest):
        raise CheckpointError(f"checkpoint holds {len(rest) - offset} unexpected trailing bytes")
    return params
