"""One strict reader and writer for every config section.

A section is a frozen dataclass whose fields are its JSON keys (a field's
``metadata["key"]`` renames one); a field without a default is a required
key. :func:`read` rejects unknown keys at every depth and checks each value
against its annotation; ``int`` refuses bools, ``float`` takes ints but no
NaN or infinity. A field with ``metadata["tags"]`` holds the section its
``"type"`` key names, the first tag by default. A ValueError or ConfigError
from ``__post_init__``, where range checks live, becomes a ConfigError
naming the section. :func:`dump` writes every default and drops ``None``
values, so ``read(type(x), dump(x), where) == x``.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

from .errors import ConfigError


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


def read(cls: type, data, where: str):
    """The ``cls`` section held by the JSON value ``data`` found at ``where``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    fields = {_key(f): f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(fields)}")
    required = {k for k, f in fields.items() if f.default is f.default_factory is dataclasses.MISSING}
    if required - set(data):
        raise ConfigError(f"missing required key(s) {sorted(required - set(data))} in {where}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for k, f in fields.items():
        if k in data:
            tags, at = f.metadata.get("tags"), f"{where}.{k}"
            kwargs[f.name] = _read_tagged(tags, data[k], at) if tags else _read_value(hints[f.name], data[k], at)
    try:
        return cls(**kwargs)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_tagged(tags: dict[str, type], data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    body = dict(data)
    tag = body.pop("type", next(iter(tags)))
    if tag not in tags:
        raise ConfigError(f"{where}.type must be one of {list(tags)}, got {tag!r}")
    return read(tags[tag], body, where)


def _read_value(tp, value, where: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return read(tp, value, where)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _read_value(inner, value, where)
    if origin is typing.Literal:
        if isinstance(value, str) and value in args:
            return value
        raise ConfigError(f"{where} must be one of {list(args)}, got {value!r}")
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a JSON array, got {value!r}")
        return tuple(_read_value(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        return float(value)
    if tp in (int, str, bool) and isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise ConfigError(f"{where} must be of type {tp.__name__}, got {value!r}")


def dump(obj):
    """The JSON value of a section (or of a field value inside one)."""
    if dataclasses.is_dataclass(obj):
        doc = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if value is None:
                continue
            entry = dump(value)
            tags = f.metadata.get("tags")
            if tags is not None:
                entry = {"type": next(t for t, c in tags.items() if type(value) is c), **entry}
            doc[_key(f)] = entry
        return doc
    if isinstance(obj, tuple):
        return [dump(v) for v in obj]
    return obj
