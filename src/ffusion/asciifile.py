"""Reading the package's ASCII file formats."""

from __future__ import annotations

from pathlib import Path

from ffusion.errors import DataError


def read_ascii(path) -> str:
    """Text of an ASCII file; a non-ASCII byte is a DataError naming the file."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise DataError(f"non-ASCII byte at offset {exc.start} in {path}") from exc
