"""The JSON document layer: the one writer and the one strict reader.

Every indented JSON file mcexit writes comes from dumps (sorted keys,
two-space indent, trailing newline), so identical documents give
identical bytes. A document that mirrors a type is read by load: it must
be a JSON object with no unknown keys and every required parameter, and
typed checks each value against the parameter's annotation. NaN and
Infinity are neither written nor read. Other checks on the values stay
with the type that owns them.
"""

from __future__ import annotations

import functools
import inspect
import json
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

T = TypeVar("T")


class ParseError(ValueError):
    """A document that is not JSON, not an object, or has unknown or
    missing keys; also raised for malformed layers and networks."""


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: str | Path, doc: Any) -> None:
    Path(path).write_text(dumps(doc))


def loads(text: str | bytes, source: str | Path) -> Any:
    """Decode JSON text; a decode error, NaN or Infinity names its source."""
    def refuse(literal: str) -> Any:
        raise ValueError(f"{literal} is not a JSON number")

    try:
        return json.loads(text, parse_constant=refuse)
    except ValueError as err:
        raise ParseError(f"{source}: not valid JSON: {err}") from None


def read_json(path: str | Path) -> Any:
    return loads(Path(path).read_bytes(), path)


@functools.cache
def parameters(make: Callable[..., Any]) -> Mapping[str, inspect.Parameter]:
    """make's parameters by name, the keys of a document that mirrors make;
    worked out once per type or function."""
    return inspect.signature(make).parameters


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


def _checked(value: Any, kind: str, where: str) -> Any:
    """value, checked to have the JSON type of the annotation kind: an
    int, float, str or bool (true and false are not numbers), null where
    kind ends in | None, an array for tuple[X, ...] (returned as a tuple)
    and an object for dict[str, X], each of whose values must be an X.
    Any other kind is left to its type."""
    if kind.endswith(" | None"):
        if value is None:
            return None
        kind = kind[: -len(" | None")]
    if kind.startswith("tuple[") and kind.endswith(", ...]"):
        item = kind[len("tuple[") : -len(", ...]")]
        return tuple(_checked(v, item, f"each value of {where}") for v in array(value, where))
    if kind.startswith("dict[str, ") and kind.endswith("]"):
        item, obj = kind[len("dict[str, ") : -1], fields(value, where)
        return {k: _checked(v, item, f"{where} entry {k!r}") for k, v in obj.items()}
    if kind not in _SCALARS:
        return value
    types, expected = _SCALARS[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
        raise ParseError(f"{where} must be {expected}, got {type(value).__name__}")
    return value


def typed(doc: Mapping[str, Any], what: str, make: Callable[..., Any]) -> dict[str, Any]:
    """doc with each value of a parameter of make checked by _checked
    against that parameter's annotation; what names doc in errors. Keys
    that make does not take are passed through as they are."""
    out = dict(doc)
    for key, param in parameters(make).items():
        if key in doc:
            out[key] = _checked(doc[key], str(param.annotation), f"{what} key {key!r}")
    return out


def load(make: Callable[..., T], doc: Any, what: str) -> T:
    """make(**doc) for a document that mirrors make's parameters (make is
    a dataclass or a function): doc must be an object with no other key
    and every parameter that has no default, and each value passes typed."""
    params = parameters(make)
    required = [name for name, p in params.items() if p.default is p.empty]
    return make(**typed(fields(doc, what, params, required), what, make))
