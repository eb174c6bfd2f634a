"""The one reader of JSON files (config, manifest, reports, timings), and the
typed reader and writer of the records in them."""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

from ffusion.errors import ConfigError, DataError, FfusionError, MissingInputError


def read_json(path, description: str, fmt: str, error=DataError, hint: str = "") -> dict:
    """The JSON object in path less its format tag, which must be fmt when
    present. The file must be UTF-8 JSON without NaN or Infinity. A missing
    file is a MissingInputError and any other fault is error; every message
    starts with description and names the file. hint ends the message of
    another format tag."""
    file = Path(path)
    if not file.is_file():
        raise MissingInputError(f"{description} not found: {path}")

    def reject(constant):
        # The writers never emit these, and render_json cannot write them back.
        raise error(f"{description} {path} holds {constant}, which is not JSON")

    try:
        payload = json.loads(file.read_text(encoding="utf-8"), parse_constant=reject)
    # ValueError covers bad UTF-8, bad JSON and an integer of over 4300 digits;
    # RecursionError, nesting deeper than the parser's stack.
    except (ValueError, RecursionError) as exc:
        raise error(f"{description} {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(
            f"{description} {path} must hold a JSON object, got {type(payload).__name__}")
    tag = payload.pop("format", fmt)
    if tag != fmt:
        raise error(f"{description} {path}: unsupported format {tag!r}{hint}")
    return payload


# The Python types a JSON value of each declared type may have, and their name.
_JSON_KINDS = {list: (list, "a list"), tuple: (list, "a list"), dict: (dict, "an object"),
               str: (str, "a string"), bool: (bool, "true or false"),
               int: (int, "an integer"), float: ((int, float), "a number")}


def from_plain(kind, raw, where: str, error=ConfigError):
    """Read the JSON value raw as kind; the one reader of every JSON record.

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


@functools.cache
def _field_types(cls) -> dict:
    """{field name: declared type} of a dataclass, resolved once per class."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _read_dataclass(cls, raw, where: str, error):
    if not isinstance(raw, dict):
        raise error(f"{where} must be an object, got {type(raw).__name__}")
    prefix = f"{where}." if where else ""
    types = _field_types(cls)
    for key in raw:
        if key not in types:
            raise error(f"{prefix}{key} is not a known key")
    values = {}
    for f in fields(cls):
        if f.name in raw:
            values[f.name] = from_plain(types[f.name], raw[f.name], prefix + f.name, error)
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
