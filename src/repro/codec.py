"""The codec of every stored and wire payload: dataclasses <-> JSON values.

Reports, result rows, frontiers and errors reach users as store records,
API envelopes and CLI exports; :func:`encode` and :func:`decode` are the
only code that turns them into JSON values and back.  The decode policy
is the same for every type: keys that are not fields are ignored (a
report's derived ``utilisation``, a field a newer schema appended), and a
missing required field or a value of the wrong shape raises ``TypeError``
(``ValueError`` for a fixed-length tuple of the wrong length).
:meth:`repro.sweep.store.ResultStore.load` turns those errors into store
misses.

:func:`decode` understands dataclasses, ``tuple[T, ...]``, fixed
``tuple[A, B]`` and ``T | None``; any other annotation (``int``,
``float``, ``str``, ``bool``, ``Mapping[str, Any]``) takes the JSON value
as is.  Floats round-trip exactly, ``inf`` included.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from collections.abc import Callable, Mapping
from typing import Any

_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _names(cls: type) -> tuple[str, ...]:
    # Not __dataclass_fields__: it also holds ClassVar pseudo-fields.
    return tuple(field.name for field in dataclasses.fields(cls))


def encode(obj: Any, /, **overrides: Any) -> dict[str, Any]:
    """Dataclass ``obj`` as JSON-ready dicts and lists, fields in order.

    ``overrides`` are values already encoded: one named like a field
    takes that field's place, any other is appended in the order given.
    """
    payload: dict[str, Any] = {}
    for name in _names(type(obj)):
        if name in overrides:
            payload[name] = overrides.pop(name)
        else:
            value = getattr(obj, name)
            payload[name] = value if type(value) in _SCALARS else _encode_value(value)
    payload.update(overrides)
    return payload


def _encode_value(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return [item if type(item) in _SCALARS else _encode_value(item)
                for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return encode(value)
    return value


def decode(cls: type, payload: Any) -> Any:
    """Rebuild dataclass ``cls`` from its :func:`encode` payload."""
    if not isinstance(payload, Mapping):
        raise TypeError(f"{cls.__name__} payload must be a JSON object, "
                        f"got {type(payload).__name__}")
    names, converters = _plan(cls)
    kwargs = {key: value for key, value in payload.items() if key in names}
    for name, convert in converters:
        if name in kwargs:
            kwargs[name] = convert(kwargs[name])
    return cls(**kwargs)


@functools.cache
def _plan(cls: type) -> tuple[frozenset[str], tuple[tuple[str, Callable], ...]]:
    hints = typing.get_type_hints(cls)
    converters = ((name, _converter(hints[name])) for name in _names(cls))
    return (frozenset(_names(cls)),
            tuple((name, convert) for name, convert in converters if convert))


def _converter(hint: Any) -> Callable[[Any], Any] | None:
    """A function rebuilding a value of type ``hint`` (``None``: keep it)."""
    if dataclasses.is_dataclass(hint):
        return functools.partial(decode, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 \
            and type(None) in args:
        inner = _converter(args[0] if args[1] is type(None) else args[1])
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if origin is not tuple or not args:
        return None
    if args[1:] == (Ellipsis,):
        item = _converter(args[0])
        return lambda value: tuple(
            _items(value) if item is None else map(item, _items(value)))
    items = [_converter(arg) for arg in args]
    return lambda value: tuple(
        entry if convert is None else convert(entry)
        for convert, entry in zip(items, _items(value), strict=True))


def _items(value: Any) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a JSON array, got {type(value).__name__}")
    return value
