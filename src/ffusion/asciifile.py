"""Reading the package's ASCII file formats."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ffusion.errors import DataError


def read_ascii(path) -> str:
    """Text of an ASCII file; a file that cannot be opened or holds a
    non-ASCII byte is a DataError naming it."""
    try:
        with open(path, encoding="ascii") as handle:
            return handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"non-ASCII byte at offset {exc.start} in {path}") from exc


def header_int(token: str, path) -> int:
    """A header integer: plain ASCII decimal digits, as the body parser reads them.

    A sign, digit separator (`0_2`) or other form `int()` would take is a
    DataError naming `path`.
    """
    if not (token.isascii() and token.isdigit()):
        raise DataError(f"header field {token!r} in {path} is not a decimal integer")
    return int(token)


def parse_numbers(text: str, dtype, shape: tuple, path, line_width: Optional[int] = None) -> np.ndarray:
    """The whitespace-separated numbers of ASCII `text` as an array of `shape`.

    One np.fromstring call parses them all. A token that is not a number of
    `dtype` (an int dtype rejects `1.5`, `1e3`, `0x10`, `nan`) or a count
    other than prod(shape) is a DataError naming `path`. With `line_width`,
    text must also hold lines ended by newlines (the last may lack one) of
    exactly `line_width` numbers each.
    """
    count = math.prod(shape)
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # Control bytes count as separators here; np.fromstring rejects all but whitespace.
    space = buf <= ord(" ")
    # fromstring reads a sign standing alone as 0 or joins it to the next number.
    sign = (buf == ord("-")) | (buf == ord("+"))
    if buf.size and (sign[-1] or (sign[:-1] & space[1:]).any()):
        raise DataError(f"malformed number in {path}: a sign without digits")
    if line_width is not None:
        starts = np.flatnonzero(space[:-1] & ~space[1:]) + 1
        ends = np.flatnonzero(buf == ord("\n")).tolist()
        if buf.size and buf[-1] != ord("\n"):
            ends.append(buf.size)
        # Tokens that start before each line's end; the first byte may start one too.
        before = np.searchsorted(starts, ends) + (buf.size > 0 and not space[0])
        if len(ends) * line_width != count:
            raise DataError(f"{path} holds {len(ends)} rows, expected {count // line_width}")
        wrong = np.flatnonzero(before != np.arange(line_width, count + 1, line_width))
        if wrong.size:
            row = int(wrong[0])
            held = before[row] - (before[row - 1] if row else 0)
            raise DataError(f"row {row} of {path} holds {held} values, expected {line_width}")
    if space.all():
        values = np.zeros(0, dtype=dtype)  # fromstring reads blank text as one value
    else:
        try:
            values = np.fromstring(text, dtype=dtype, sep=" ")
        except ValueError as exc:
            raise DataError(f"malformed number in {path}") from exc
    if values.size != count:
        raise DataError(f"{path} holds {values.size} values, expected {count}")
    return values.reshape(shape)
