"""Tagged-JSON codec for live trace fields and done reports.

The TCP links speak :mod:`repro.live.wire`; this is the text encoding of
the same values where a human or ``jq`` reads them, and the home of the
dataclass allow-list both codecs share.  Everything a protocol puts in a
trace field (or on the wire) is built from JSON scalars, lists, dicts,
tuples, sets, frozen dataclasses and the
:class:`~repro.core.ftvc.FaultTolerantVectorClock`.  The codec encodes
those losslessly into plain JSON with ``"__tag__"``-style markers and
decodes them back into the original types.

Security note: decoding instantiates classes by name, so the decoder only
accepts dataclasses defined in modules under the ``repro.`` package.  A
frame naming anything else is rejected -- the live cluster should never
execute a constructor picked by the network.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from typing import Any

from repro.core.ftvc import FaultTolerantVectorClock

#: Module prefix decodable dataclasses must live under.
TRUSTED_PREFIX = "repro."


class CodecError(ValueError):
    """Raised for unencodable values and untrusted or malformed frames."""


@functools.cache
def field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names in declaration order, computed once per
    class: what both codecs write, and the order they read them in."""
    return tuple(field.name for field in dataclasses.fields(cls))


def canonical_key(value: Any):
    """A total-order sort key over every codec-encodable value.

    Used to order set elements deterministically on the wire.  Each value
    maps to a ``(type rank, ...)`` tuple built once per element -- unlike
    re-serialising elements to JSON inside the sort comparator, this is
    O(size) per element, and it also covers the binary codec's types
    without a JSON detour.  Booleans rank separately from numbers
    (``True == 1`` would otherwise collide), ints and floats share a rank
    so mixed numeric sets still compare numerically.
    """
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, FaultTolerantVectorClock):
        return (4, value.pairs())
    if isinstance(value, (list, tuple)):
        return (5, tuple(canonical_key(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return (6, tuple(sorted(canonical_key(item) for item in value)))
    if isinstance(value, dict):
        return (
            7,
            tuple(
                sorted(
                    (canonical_key(k), canonical_key(v))
                    for k, v in value.items()
                )
            ),
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return (
            8,
            f"{cls.__module__}:{cls.__qualname__}",
            tuple(
                canonical_key(getattr(value, name))
                for name in field_names(cls)
            ),
        )
    raise CodecError(f"cannot order {type(value).__name__}: {value!r}")


def resolve_dataclass(path: str) -> type:
    """Resolve a ``module:QualName`` wire path to a trusted dataclass.

    Shared by the JSON and binary codecs: both only instantiate
    dataclasses defined directly in modules under ``repro.``.
    """
    module_name, _, qualname = path.partition(":")
    if not module_name.startswith(TRUSTED_PREFIX) or "." in qualname:
        raise CodecError(f"untrusted dataclass on the wire: {path!r}")
    module = importlib.import_module(module_name)
    cls = getattr(module, qualname, None)
    if cls is None or not dataclasses.is_dataclass(cls):
        raise CodecError(f"{path!r} is not a known dataclass")
    return cls


def encode(value: Any) -> Any:
    """Lower ``value`` to a JSON-representable structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, FaultTolerantVectorClock):
        return {"__ftvc__": [list(pair) for pair in value.pairs()]}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, tuple):
        return {"__tuple__": [encode(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        tag = "__frozenset__" if isinstance(value, frozenset) else "__set__"
        # Sort before encoding for a deterministic wire image.
        items = [
            encode(item) for item in sorted(value, key=canonical_key)
        ]
        return {tag: items}
    if isinstance(value, dict):
        return {
            "__dict__": [[encode(k), encode(v)] for k, v in value.items()]
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        if not cls.__module__.startswith(TRUSTED_PREFIX):
            raise CodecError(
                f"refusing to encode non-repro dataclass {cls.__module__}."
                f"{cls.__qualname__}"
            )
        return {
            "__dc__": f"{cls.__module__}:{cls.__qualname__}",
            "fields": {
                name: encode(getattr(value, name))
                for name in field_names(cls)
            },
        }
    raise CodecError(f"cannot encode {type(value).__name__}: {value!r}")


def decode(obj: Any) -> Any:
    """Invert :func:`encode`."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [decode(item) for item in obj]
    if isinstance(obj, dict):
        if "__ftvc__" in obj:
            return FaultTolerantVectorClock.of(
                tuple(pair) for pair in obj["__ftvc__"]
            )
        if "__tuple__" in obj:
            return tuple(decode(item) for item in obj["__tuple__"])
        if "__set__" in obj:
            return {decode(item) for item in obj["__set__"]}
        if "__frozenset__" in obj:
            return frozenset(decode(item) for item in obj["__frozenset__"])
        if "__dict__" in obj:
            return {decode(k): decode(v) for k, v in obj["__dict__"]}
        if "__dc__" in obj:
            return _decode_dataclass(obj)
        raise CodecError(f"unrecognised wire object: {sorted(obj)!r}")
    raise CodecError(f"cannot decode {type(obj).__name__}")


def _decode_dataclass(obj: dict) -> Any:
    cls = resolve_dataclass(obj["__dc__"])
    fields = {k: decode(v) for k, v in obj["fields"].items()}
    return cls(**fields)

