"""Shared architecture constants for encoders, fusion and decoders, and the one
reader and writer of JSON config and report sections."""

from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

from ffusion.errors import ConfigError, FfusionError
from ffusion.scene.render import LABEL_GRID

IMAGE_SIDE = 32  # camera and depth images are IMAGE_SIDE pixels square
SEG_BLOCK = 2  # label cells per patch side that the segmentation head decodes


def require_int(name: str, value, low: int) -> None:
    """Raise ConfigError unless value is an int >= low; a bool (JSON true) is not a count."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def require_real(name: str, value) -> float:
    """Return value as a float; raise ConfigError unless it is a real number, not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


# The Python types a JSON value of each declared type may have, and their name.
_JSON_KINDS = {list: (list, "a list"), tuple: (list, "a list"), dict: (dict, "an object"),
               str: (str, "a string"), bool: (bool, "true or false"),
               int: (int, "an integer"), float: ((int, float), "a number")}


def from_plain(kind, raw, where: str, error=ConfigError):
    """Read the JSON value raw as kind; the one reader of every config and report section.

    kind is a dataclass, List[T], Tuple[T, ...], Dict[str, T], Optional[T],
    str, bool, int or float, and reading recurses by the dataclass field
    types. A dataclass reads from an object whose keys are its fields: a
    missing key takes the field's default, and an unknown key, or a missing
    one without a default, is an error. A list read into a tuple becomes a
    tuple; every other value keeps its JSON spelling (an int stays an int
    where a float is declared, and a JSON true is not a number). where is the
    path of raw in the document ("" for the root), so every message names the
    key at fault. An FfusionError from a dataclass's __post_init__ is raised
    as error, with where as its prefix. A dataclass with a read_error
    attribute is read with that error class instead.
    """
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[T]
        return None if raw is None else from_plain(args[0], raw, where, error)
    if is_dataclass(kind):
        return _read_dataclass(kind, raw, where, getattr(kind, "read_error", error))
    accepted, name = _JSON_KINDS[origin or kind]
    if not isinstance(raw, accepted) or (isinstance(raw, bool) and kind is not bool):
        raise error(f"{where} must be {name}, got {type(raw).__name__}")
    if origin in (list, tuple):
        items = [from_plain(args[0], item, f"{where}[{i}]", error) for i, item in enumerate(raw)]
        return items if origin is list else tuple(items)
    if origin is dict:
        return {key: from_plain(args[1], value, f"{where}.{key}" if where else key, error)
                for key, value in raw.items()}
    return raw


def _read_dataclass(cls, raw, where: str, error):
    if not isinstance(raw, dict):
        raise error(f"{where} must be an object, got {type(raw).__name__}")
    prefix = f"{where}." if where else ""
    names = {f.name for f in fields(cls)}
    for key in raw:
        if key not in names:
            raise error(f"{prefix}{key} is not a known key")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in raw:
            values[f.name] = from_plain(hints[f.name], raw[f.name], prefix + f.name, error)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise error(f"{prefix}{f.name} is missing")
    try:
        return cls(**values)
    except FfusionError as exc:
        raise error(f"{where}: {exc}" if where else str(exc)) from None


def to_plain(value):
    """JSON-ready copy of value; the one writer of every config section and record.

    A dataclass becomes a dict of its fields in declaration order, a tuple
    or list becomes a list, and a dict keeps its keys in order, recursing
    into all three; any other value is returned as it is.
    """
    if is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: to_plain(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class ModelConfig:
    """Latent width, block counts and tokenization geometry.

    The defaults are the smallest setting that exercises multi-head,
    multi-block behavior while training in minutes on a CPU.
    """

    d: int = 64
    blocks: int = 2
    heads: int = 4
    patch: int = 8
    text_len: int = 8

    def __post_init__(self):
        for name in ("d", "blocks", "heads", "patch", "text_len"):
            require_int(name, getattr(self, name), 1)
        side, rest = divmod(IMAGE_SIDE, self.patch)
        if rest or side * SEG_BLOCK != LABEL_GRID:
            raise ConfigError(
                f"patch={self.patch} must cut the {IMAGE_SIDE}-pixel image into "
                f"{LABEL_GRID // SEG_BLOCK}x{LABEL_GRID // SEG_BLOCK} patches, one per "
                f"{SEG_BLOCK}x{SEG_BLOCK} block of the {LABEL_GRID}x{LABEL_GRID} label grid"
            )
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} is not divisible by heads={self.heads}")
        if self.text_len < 3:
            raise ConfigError("text_len must fit BOS, one word and EOS")
