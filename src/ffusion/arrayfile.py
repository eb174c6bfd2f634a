"""Named float64 arrays in one binary file: the checkpoint's and the dataset's container.

Layout (bytes):
    line "<magic>"                 format and version
    line "<count>"                 number of arrays
    count lines "<name> <d0> ..."  name, then shape
    line "end"                     header terminator
    raw data                       little-endian float64, concatenated in
                                   header order, row-major

A name is not empty or "end" and holds no whitespace; the writer does not
check. A scalar lists no dimensions. The count and every dimension are
plain decimal digits. Round trips are bit-exact.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping

import numpy as np


def write_arrays(path, magic: str, arrays: Mapping[str, np.ndarray]) -> None:
    """Write arrays to path in their mapping order."""
    header = [magic, str(len(arrays))]
    header += [" ".join([name, *map(str, np.shape(arr))]) for name, arr in arrays.items()]
    header.append("end")
    blob = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in arrays.values())
    Path(path).write_bytes("\n".join(header).encode("ascii") + b"\n" + blob)


def read_arrays(path, magic: str, description: str, error) -> dict:
    """The {name: float64 array} in path, in file order.

    Any fault is error, with a message naming description and the file: a
    file that cannot be read, a header that is not ASCII or lacks its end
    marker, another magic line, a count or dimension that is not plain
    decimal digits, a count other than the number of array lines, a
    repeated name, more dimensions than numpy supports, and data shorter or
    longer than the shapes need.
    """
    where = f"{description} {path}"
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {where}: {exc.strerror}") from exc
    head, sep, rest = raw.partition(b"\nend\n")
    if not sep:
        raise error(f"{where}: header is missing its end marker")
    try:
        lines = head.decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: non-ASCII byte at offset {exc.start}") from exc
    if lines[0] != magic:
        raise error(f"{where}: unsupported format {lines[0][:40]!r}, expected {magic!r}")
    if len(lines) < 2:
        raise error(f"{where}: header is missing its array count")

    def header_int(token: str, what: str) -> int:
        if not (token.isascii() and token.isdigit()):
            raise error(f"{where}: {what} {token!r} is not a decimal integer")
        return int(token)

    count = header_int(lines[1], "array count")
    specs = lines[2:]
    if len(specs) != count:
        raise error(f"{where}: header lists {len(specs)} arrays, expected {count}")
    arrays: dict = {}
    offset = 0
    for line in specs:
        fields = line.split()
        if not fields:
            raise error(f"{where}: empty array line in header")
        name = fields[0]
        if name in arrays:
            raise error(f"{where}: array {name!r} is listed twice")
        shape = tuple(header_int(d, f"dimension of {name!r}") for d in fields[1:])
        # Python ints: a product of huge dimensions cannot wrap before this check.
        nbytes = math.prod(shape) * 8
        if nbytes > len(rest) - offset:
            raise error(f"{where}: data truncated at array {name!r}")
        try:
            arrays[name] = np.frombuffer(rest, dtype="<f8", count=nbytes // 8,
                                         offset=offset).reshape(shape).astype(np.float64)
        except ValueError as exc:  # more dimensions than numpy supports
            raise error(f"{where}: bad shape on array line {line!r}") from exc
        offset += nbytes
    if offset != len(rest):
        raise error(f"{where}: {len(rest) - offset} unexpected trailing bytes")
    return arrays
