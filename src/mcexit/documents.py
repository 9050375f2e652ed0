"""The JSON document layer: the one writer and the one strict reader.

Every indented JSON file mcexit writes comes from dumps (sorted keys,
two-space indent, trailing newline), so identical documents give
identical bytes. Every document it reads passes fields: it must be a
JSON object with no unknown keys and every required key; array and
typed check a list and the scalar values of a dataclass document. Other
checks on the values stay with the type that owns them.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence


class ParseError(ValueError):
    """A document that is not JSON, not an object, or has unknown or
    missing keys; also raised for malformed layers and networks."""


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, doc: Any) -> None:
    Path(path).write_text(dumps(doc))


def loads(text: str | bytes, source: str | Path) -> Any:
    """Decode JSON text; a decode error names its source."""
    try:
        return json.loads(text)
    except ValueError as err:
        raise ParseError(f"{source}: not valid JSON: {err}") from None


def read_json(path: str | Path) -> Any:
    return loads(Path(path).read_bytes(), path)


def field_names(cls: type) -> frozenset[str]:
    """The field names of a dataclass, for documents that mirror one."""
    return frozenset(f.name for f in dataclasses.fields(cls))


def fields(
    doc: Any,
    what: str,
    allowed: Iterable[str] | None = None,
    required: Iterable[str] = (),
) -> Mapping[str, Any]:
    """doc, checked to be an object with only allowed keys (any keys when
    allowed is None) and every required key; what names it in errors."""
    if not isinstance(doc, Mapping):
        raise ParseError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if allowed is not None:
        unknown = set(doc) - set(allowed)
        if unknown:
            raise ParseError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ParseError(f"missing {what} keys: {missing}")
    return doc


def array(value: Any, what: str) -> Sequence[Any]:
    """value, checked to be a JSON array (a list or tuple); what names it
    in errors."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


_SCALARS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
}


def typed(doc: Mapping[str, Any], what: str, cls: type) -> Mapping[str, Any]:
    """doc, checked that every value of an int, float, str or bool field of
    the dataclass cls has that JSON type (null too where the field is
    optional; true and false are not numbers), and that a tuple[X, ...]
    field of such an X is an array of such values. Other fields are left
    to cls."""
    for f in dataclasses.fields(cls):
        if f.name not in doc:
            continue
        where = f"{what} key {f.name!r}"
        kind, values = str(f.type), [doc[f.name]]
        if kind.startswith("tuple[") and kind.endswith(", ...]"):
            kind, values = kind[len("tuple[") : -len(", ...]")], array(doc[f.name], where)
            where = f"each value of {where}"
        kind, _, rest = kind.partition(" | ")
        if kind not in _SCALARS:
            continue
        types, expected = _SCALARS[kind]
        for value in values:
            if value is None and rest == "None":
                continue
            if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
                raise ParseError(f"{where} must be {expected}, got {type(value).__name__}")
    return doc
