"""Compact binary wire codec for the live cluster: the one format the
TCP links speak.

Struct-packed varint frames.  Every frame starts with a magic byte (0xB5)
and a wire-format version byte; the transport's read sides refuse a frame
that starts with anything else, or with a version they do not know, the
way they refuse one that fails its CRC.

Two stateful optimizations ride on the fact that encoder and decoder live
on the two ends of one TCP connection and observe the same byte stream in
the same order:

- **FTVC delta chains** -- the first clock on a connection is encoded in
  full; each later clock is encoded as the ``(index, version, timestamp)``
  diff against the previous clock on the *same* connection whenever that
  is smaller.  A reconnect (peer crash, transient drop) builds a fresh
  encoder, so the chain restarts with a full clock: the full-clock
  fallback the delta scheme needs after a failure is exactly the
  connection lifecycle.
- **Dataclass interning** -- the first instance of a dataclass on a
  connection carries its ``module:QualName`` path and field names
  (``DC_DEF``); later instances reference the definition by a small
  integer (``DC_REF``) and carry field values only.

Security note: like the trace codec, the decoder only instantiates
dataclasses defined in modules under ``repro.`` (shared
:func:`repro.live.codec.resolve_dataclass` check).
"""

from __future__ import annotations

import dataclasses
import struct
from itertools import chain
from typing import Any, Callable

from repro.core.ftvc import FaultTolerantVectorClock
from repro.live.codec import (
    TRUSTED_PREFIX,
    CodecError,
    canonical_key,
    field_names,
    resolve_dataclass,
)

#: First byte of every wire frame.
MAGIC = 0xB5
#: Bump when the byte layout changes; the receiver rejects unknown versions.
WIRE_VERSION = 1

# Frame types (byte 2 of a binary frame).
FRAME_HELLO = 1
FRAME_DATA = 2
FRAME_ACK = 3

# Value tags.
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3          # zigzag varint
_T_FLOAT = 4        # IEEE-754 double, big-endian
_T_STR = 5          # varint byte length + UTF-8
_T_LIST = 6         # varint count + items
_T_TUPLE = 7
_T_SET = 8          # canonical element order (deterministic wire image)
_T_FROZENSET = 9
_T_DICT = 10        # varint count + (key, value) pairs, insertion order
_T_DC_DEF = 11      # varint id + path + field names + field values
_T_DC_REF = 12      # varint id + field values
_T_FTVC_FULL = 13   # varint n + n * (varint version, varint timestamp)
_T_FTVC_DELTA = 14  # varint k + k * (varint idx, version, timestamp)

_FLOAT = struct.Struct(">d")


def _put_uvarint(out: bytearray, value: int) -> None:
    if 0 <= value < 0x80:
        out.append(value)
        return
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _put_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    _put_uvarint(out, len(data))
    out += data


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """The varint at ``pos`` and the offset past it.  Reading past the
    end raises ``IndexError``, which the frame parsers report as a
    truncated frame."""
    value = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def _uvarints(data: bytes, pos: int, count: int) -> tuple[list[int], int]:
    """``count`` consecutive varints (a clock's pairs or triples)."""
    values = []
    for _ in range(count):
        byte = data[pos]
        if byte < 0x80:
            values.append(byte)
            pos += 1
        else:
            value, pos = _uvarint(data, pos)
            values.append(value)
    return values, pos


def _text(data: bytes, pos: int) -> tuple[str, int]:
    size, pos = _uvarint(data, pos)
    end = pos + size
    if end > len(data):
        raise CodecError("truncated frame")
    try:
        return data[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"malformed text: {exc}") from None


def _parse_body(data: bytes, pos: int, parse: Callable, what: str) -> Any:
    """``parse(data, pos)`` over a whole frame: ``(value, end)`` must
    end exactly at the frame's end.  The parsers read bytes by index, so
    a frame cut short raises ``IndexError`` wherever it ends."""
    try:
        value, pos = parse(data, pos)
    except IndexError:
        raise CodecError("truncated frame") from None
    if pos != len(data):
        raise CodecError(f"trailing bytes after {what}")
    return value


def is_binary(data: bytes) -> bool:
    """Is this frame ours?  The transport refuses anything else."""
    return bool(data) and data[0] == MAGIC


def frame_type(data: bytes) -> int:
    """Frame type of a binary frame (call :func:`is_binary` first)."""
    if len(data) < 3:
        raise CodecError("binary frame shorter than its header")
    if data[1] != WIRE_VERSION:
        raise CodecError(
            f"wire version {data[1]} not supported (expected {WIRE_VERSION})"
        )
    return data[2]


def hello_frame(pid: int, boot: int) -> bytes:
    out = bytearray((MAGIC, WIRE_VERSION, FRAME_HELLO))
    _put_uvarint(out, pid)
    _put_uvarint(out, boot)
    return bytes(out)


def _hello_body(data: bytes, pos: int) -> tuple[tuple[int, int], int]:
    pid, pos = _uvarint(data, pos)
    boot, pos = _uvarint(data, pos)
    return (pid, boot), pos


def parse_hello(data: bytes) -> tuple[int, int]:
    return _parse_body(data, 3, _hello_body, "hello")


def ack_frame(seq: int) -> bytes:
    out = bytearray((MAGIC, WIRE_VERSION, FRAME_ACK))
    _put_uvarint(out, seq)
    return bytes(out)


def parse_ack(data: bytes) -> int:
    return _parse_body(data, 3, _uvarint, "ack")


class WireEncoder:
    """One connection's sending side: delta chains + interning state.

    Create a fresh encoder per connection; reusing one across connections
    would desynchronise its state from the peer's :class:`WireDecoder`.
    """

    __slots__ = ("_plans", "_last_clock")

    def __init__(self) -> None:
        # Per dataclass defined on this connection: its DC_REF prefix
        # and its field names, so a later instance costs one lookup.
        self._plans: dict[type, tuple[bytes, tuple[str, ...]]] = {}
        self._last_clock: FaultTolerantVectorClock | None = None

    def data_frame(self, seq: int, msg: Any) -> bytes:
        out = bytearray((MAGIC, WIRE_VERSION, FRAME_DATA))
        _put_uvarint(out, seq)
        self._encode(out, msg)
        return bytes(out)

    def encode_value(self, value: Any) -> bytes:
        """Encode a bare value (tests and size accounting)."""
        out = bytearray()
        self._encode(out, value)
        return bytes(out)

    def _encode(self, out: bytearray, value: Any) -> None:
        # The exact types a message is made of first; anything else --
        # subclasses such as ClockEntry included -- takes the isinstance
        # chain, which writes the same bytes for the exact types.
        cls = type(value)
        if cls is int:
            out.append(_T_INT)
            _put_uvarint(out, _zigzag(value))
            return
        plan = self._plans.get(cls)
        if plan is not None:
            out += plan[0]
            for name in plan[1]:
                self._encode(out, getattr(value, name))
        elif cls is str:
            out.append(_T_STR)
            _put_str(out, value)
        elif cls is FaultTolerantVectorClock:
            self._encode_clock(out, value)
        elif cls is tuple or cls is list:
            out.append(_T_TUPLE if cls is tuple else _T_LIST)
            _put_uvarint(out, len(value))
            for item in value:
                self._encode(out, item)
        elif value is None:
            out.append(_T_NONE)
        elif cls is float:
            out.append(_T_FLOAT)
            out += _FLOAT.pack(value)
        else:
            self._encode_other(out, value)

    def _encode_other(self, out: bytearray, value: Any) -> None:
        if isinstance(value, bool):
            out.append(_T_TRUE if value else _T_FALSE)
            return
        if isinstance(value, int):
            out.append(_T_INT)
            _put_uvarint(out, _zigzag(value))
            return
        if isinstance(value, float):
            out.append(_T_FLOAT)
            out += _FLOAT.pack(value)
            return
        if isinstance(value, str):
            out.append(_T_STR)
            _put_str(out, value)
            return
        if isinstance(value, FaultTolerantVectorClock):
            self._encode_clock(out, value)
            return
        if isinstance(value, (list, tuple)):
            out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
            _put_uvarint(out, len(value))
            for item in value:
                self._encode(out, item)
            return
        if isinstance(value, (set, frozenset)):
            out.append(
                _T_FROZENSET if isinstance(value, frozenset) else _T_SET
            )
            _put_uvarint(out, len(value))
            for item in sorted(value, key=canonical_key):
                self._encode(out, item)
            return
        if isinstance(value, dict):
            out.append(_T_DICT)
            _put_uvarint(out, len(value))
            for key, val in value.items():
                self._encode(out, key)
                self._encode(out, val)
            return
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            self._define_dataclass(out, value)
            return
        raise CodecError(f"cannot encode {type(value).__name__}: {value!r}")

    def _encode_clock(
        self, out: bytearray, clock: FaultTolerantVectorClock
    ) -> None:
        base, self._last_clock = self._last_clock, clock
        size = len(clock.entries)
        if base is not None and len(base.entries) == size:
            changes = clock.diff(base)
            # A delta entry costs an index varint on top of the pair, so
            # it only wins while few entries moved.
            if 3 * len(changes) < 2 * size:
                out.append(_T_FTVC_DELTA)
                _put_uvarint(out, len(changes))
                for value in chain.from_iterable(changes):
                    _put_uvarint(out, value)
                return
        out.append(_T_FTVC_FULL)
        _put_uvarint(out, size)
        for value in chain.from_iterable(clock.entries):
            _put_uvarint(out, value)

    def _define_dataclass(self, out: bytearray, value: Any) -> None:
        """The first instance of a class on this connection: ``DC_DEF``
        with the class path and field names, then the plan for the rest."""
        cls = type(value)
        if not cls.__module__.startswith(TRUSTED_PREFIX):
            raise CodecError(
                f"refusing to encode non-repro dataclass "
                f"{cls.__module__}.{cls.__qualname__}"
            )
        dc_id = len(self._plans)
        names = field_names(cls)
        ref = bytearray((_T_DC_REF,))
        _put_uvarint(ref, dc_id)
        self._plans[cls] = (bytes(ref), names)
        out.append(_T_DC_DEF)
        _put_uvarint(out, dc_id)
        _put_str(out, f"{cls.__module__}:{cls.__qualname__}")
        _put_uvarint(out, len(names))
        for name in names:
            _put_str(out, name)
        for name in names:
            self._encode(out, getattr(value, name))


class WireDecoder:
    """One connection's receiving side; mirrors :class:`WireEncoder`.

    The chain/interning state advances on every frame decoded, so the
    transport must decode *every* data frame it reads -- including
    duplicates it will not deliver -- to stay in lockstep with the sender.
    """

    __slots__ = ("_dc_defs", "_last_clock")

    def __init__(self) -> None:
        # Per definition id: the class, the field names in wire order,
        # and whether that order is the constructor's positional order.
        self._dc_defs: list[tuple[type, tuple[str, ...], bool]] = []
        self._last_clock: FaultTolerantVectorClock | None = None

    def decode_data(self, data: bytes) -> tuple[int, Any]:
        """Decode a FRAME_DATA frame into ``(seq, value)``."""
        return _parse_body(data, 3, self._data_body, "data frame")

    def decode_value(self, data: bytes) -> Any:
        """Decode a bare value produced by ``encode_value``."""
        return _parse_body(data, 0, self._decode, "value")

    def _data_body(self, data: bytes, pos: int) -> tuple[tuple[int, Any], int]:
        seq, pos = _uvarint(data, pos)
        value, pos = self._decode(data, pos)
        return (seq, value), pos

    def _decode(self, data: bytes, pos: int) -> tuple[Any, int]:
        """The value at ``pos`` and the offset past it."""
        tag = data[pos]
        pos += 1
        if tag == _T_INT:
            byte = data[pos]
            if byte < 0x80:
                return (byte >> 1) ^ -(byte & 1), pos + 1
            value, pos = _uvarint(data, pos)
            return (value >> 1) ^ -(value & 1), pos      # un-zigzag
        if tag == _T_DC_REF:
            dc_id, pos = _uvarint(data, pos)
            if dc_id >= len(self._dc_defs):
                raise CodecError(f"dataclass reference {dc_id} never defined")
            return self._instantiate(self._dc_defs[dc_id], data, pos)
        if tag == _T_STR:
            return _text(data, pos)
        if tag == _T_FTVC_DELTA:
            base = self._last_clock
            if base is None:
                raise CodecError("clock delta with no prior clock")
            count, pos = _uvarint(data, pos)
            flat, pos = _uvarints(data, pos, 3 * count)
            try:
                clock = FaultTolerantVectorClock.from_delta(
                    base, zip(flat[::3], flat[1::3], flat[2::3])
                )
            except (IndexError, ValueError) as exc:
                raise CodecError(f"malformed clock delta: {exc}") from None
            self._last_clock = clock
            return clock, pos
        if tag == _T_TUPLE or tag == _T_LIST:
            items, pos = self._items(data, pos)
            return (tuple(items) if tag == _T_TUPLE else items), pos
        if tag == _T_NONE:
            return None, pos
        if tag == _T_FLOAT:
            end = pos + _FLOAT.size
            if end > len(data):
                raise CodecError("truncated frame")
            return _FLOAT.unpack_from(data, pos)[0], end
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_SET or tag == _T_FROZENSET or tag == _T_DICT:
            items, pos = self._items(data, pos, 2 if tag == _T_DICT else 1)
            try:
                if tag == _T_DICT:
                    return dict(zip(items[::2], items[1::2])), pos
                return (set if tag == _T_SET else frozenset)(items), pos
            except TypeError as exc:        # an unhashable element or key
                raise CodecError(f"malformed container: {exc}") from None
        if tag == _T_FTVC_FULL:
            count, pos = _uvarint(data, pos)
            flat, pos = _uvarints(data, pos, 2 * count)
            try:
                clock = FaultTolerantVectorClock.of(
                    zip(flat[::2], flat[1::2])
                )
            except ValueError as exc:
                raise CodecError(f"malformed clock: {exc}") from None
            self._last_clock = clock
            return clock, pos
        if tag == _T_DC_DEF:
            return self._define_dataclass(data, pos)
        raise CodecError(f"unknown wire tag {tag}")

    def _items(
        self, data: bytes, pos: int, per_item: int = 1
    ) -> tuple[list, int]:
        """A container's varint count and then its values."""
        count, pos = _uvarint(data, pos)
        items = []
        for _ in range(per_item * count):
            value, pos = self._decode(data, pos)
            items.append(value)
        return items, pos

    def _define_dataclass(self, data: bytes, pos: int) -> tuple[Any, int]:
        dc_id, pos = _uvarint(data, pos)
        if dc_id != len(self._dc_defs):
            raise CodecError(
                f"dataclass definition id {dc_id} out of order "
                f"(expected {len(self._dc_defs)})"
            )
        path, pos = _text(data, pos)
        cls = resolve_dataclass(path)
        count, pos = _uvarint(data, pos)
        names = []
        for _ in range(count):
            name, pos = _text(data, pos)
            names.append(name)
        names = tuple(names)
        declared = field_names(cls)
        if set(names) != set(declared):
            raise CodecError(
                f"field names {names!r} do not match "
                f"{cls.__qualname__}'s fields"
            )
        positional = names == declared and all(
            f.init and not f.kw_only for f in dataclasses.fields(cls)
        )
        plan = (cls, names, positional)
        self._dc_defs.append(plan)
        return self._instantiate(plan, data, pos)

    def _instantiate(
        self, plan: tuple[type, tuple[str, ...], bool], data: bytes, pos: int
    ) -> tuple[Any, int]:
        cls, names, positional = plan
        values = []
        for _ in names:
            value, pos = self._decode(data, pos)
            values.append(value)
        try:
            if positional:
                return cls(*values), pos
            return cls(**dict(zip(names, values))), pos
        except (IndexError, TypeError, ValueError) as exc:
            raise CodecError(f"cannot build {cls.__qualname__}: {exc}") from None
