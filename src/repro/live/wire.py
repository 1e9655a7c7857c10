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
from typing import Any

from repro.core.ftvc import FaultTolerantVectorClock
from repro.live.codec import (
    TRUSTED_PREFIX,
    CodecError,
    canonical_key,
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


def _unzigzag(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


class _Reader:
    """Cursor over one frame's bytes."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self._pos = pos

    def byte(self) -> int:
        try:
            value = self._data[self._pos]
        except IndexError:
            raise CodecError("truncated frame") from None
        self._pos += 1
        return value

    def uvarint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise CodecError("varint too long")

    def read(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise CodecError("truncated frame")
        chunk = self._data[self._pos:end]
        self._pos = end
        return bytes(chunk)

    def text(self) -> str:
        return self.read(self.uvarint()).decode("utf-8")

    def at_end(self) -> bool:
        return self._pos == len(self._data)


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


def parse_hello(data: bytes) -> tuple[int, int]:
    reader = _Reader(data, 3)
    pid = reader.uvarint()
    boot = reader.uvarint()
    if not reader.at_end():
        raise CodecError("trailing bytes after hello")
    return pid, boot


def ack_frame(seq: int) -> bytes:
    out = bytearray((MAGIC, WIRE_VERSION, FRAME_ACK))
    _put_uvarint(out, seq)
    return bytes(out)


def parse_ack(data: bytes) -> int:
    reader = _Reader(data, 3)
    seq = reader.uvarint()
    if not reader.at_end():
        raise CodecError("trailing bytes after ack")
    return seq


class WireEncoder:
    """One connection's sending side: delta chains + interning state.

    Create a fresh encoder per connection; reusing one across connections
    would desynchronise its state from the peer's :class:`WireDecoder`.
    """

    __slots__ = ("_dc_ids", "_last_clock")

    def __init__(self) -> None:
        self._dc_ids: dict[type, int] = {}
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
        if value is None:
            out.append(_T_NONE)
            return
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
            self._encode_dataclass(out, value)
            return
        raise CodecError(f"cannot encode {type(value).__name__}: {value!r}")

    def _encode_clock(
        self, out: bytearray, clock: FaultTolerantVectorClock
    ) -> None:
        base = self._last_clock
        if base is not None and len(base) == len(clock):
            changes = clock.diff(base)
            # A delta entry costs an index varint on top of the pair, so
            # it only wins while few entries moved.
            if 3 * len(changes) < 2 * len(clock):
                out.append(_T_FTVC_DELTA)
                _put_uvarint(out, len(changes))
                for index, version, timestamp in changes:
                    _put_uvarint(out, index)
                    _put_uvarint(out, version)
                    _put_uvarint(out, timestamp)
                self._last_clock = clock
                return
        out.append(_T_FTVC_FULL)
        _put_uvarint(out, len(clock))
        for version, timestamp in clock.pairs():
            _put_uvarint(out, version)
            _put_uvarint(out, timestamp)
        self._last_clock = clock

    def _encode_dataclass(self, out: bytearray, value: Any) -> None:
        cls = type(value)
        fields = dataclasses.fields(value)
        dc_id = self._dc_ids.get(cls)
        if dc_id is None:
            if not cls.__module__.startswith(TRUSTED_PREFIX):
                raise CodecError(
                    f"refusing to encode non-repro dataclass "
                    f"{cls.__module__}.{cls.__qualname__}"
                )
            dc_id = len(self._dc_ids)
            self._dc_ids[cls] = dc_id
            out.append(_T_DC_DEF)
            _put_uvarint(out, dc_id)
            _put_str(out, f"{cls.__module__}:{cls.__qualname__}")
            _put_uvarint(out, len(fields))
            for field in fields:
                _put_str(out, field.name)
        else:
            out.append(_T_DC_REF)
            _put_uvarint(out, dc_id)
        for field in fields:
            self._encode(out, getattr(value, field.name))


class WireDecoder:
    """One connection's receiving side; mirrors :class:`WireEncoder`.

    The chain/interning state advances on every frame decoded, so the
    transport must decode *every* data frame it reads -- including
    duplicates it will not deliver -- to stay in lockstep with the sender.
    """

    __slots__ = ("_dc_defs", "_last_clock")

    def __init__(self) -> None:
        self._dc_defs: list[tuple[type, tuple[str, ...]]] = []
        self._last_clock: FaultTolerantVectorClock | None = None

    def decode_data(self, data: bytes) -> tuple[int, Any]:
        """Decode a FRAME_DATA frame into ``(seq, value)``."""
        reader = _Reader(data, 3)
        seq = reader.uvarint()
        value = self._decode(reader)
        if not reader.at_end():
            raise CodecError("trailing bytes after value")
        return seq, value

    def decode_value(self, data: bytes) -> Any:
        """Decode a bare value produced by ``encode_value``."""
        reader = _Reader(data)
        value = self._decode(reader)
        if not reader.at_end():
            raise CodecError("trailing bytes after value")
        return value

    def _decode(self, reader: _Reader) -> Any:
        tag = reader.byte()
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return _unzigzag(reader.uvarint())
        if tag == _T_FLOAT:
            return _FLOAT.unpack(reader.read(_FLOAT.size))[0]
        if tag == _T_STR:
            return reader.text()
        if tag == _T_LIST:
            return [self._decode(reader) for _ in range(reader.uvarint())]
        if tag == _T_TUPLE:
            return tuple(
                self._decode(reader) for _ in range(reader.uvarint())
            )
        if tag == _T_SET:
            return {self._decode(reader) for _ in range(reader.uvarint())}
        if tag == _T_FROZENSET:
            return frozenset(
                self._decode(reader) for _ in range(reader.uvarint())
            )
        if tag == _T_DICT:
            return {
                self._decode(reader): self._decode(reader)
                for _ in range(reader.uvarint())
            }
        if tag == _T_DC_DEF:
            return self._decode_dc_def(reader)
        if tag == _T_DC_REF:
            return self._decode_dc_ref(reader)
        if tag == _T_FTVC_FULL:
            count = reader.uvarint()
            clock = FaultTolerantVectorClock.of(
                (reader.uvarint(), reader.uvarint()) for _ in range(count)
            )
            self._last_clock = clock
            return clock
        if tag == _T_FTVC_DELTA:
            base = self._last_clock
            if base is None:
                raise CodecError("clock delta with no prior clock")
            changes = [
                (reader.uvarint(), reader.uvarint(), reader.uvarint())
                for _ in range(reader.uvarint())
            ]
            clock = FaultTolerantVectorClock.from_delta(base, changes)
            self._last_clock = clock
            return clock
        raise CodecError(f"unknown wire tag {tag}")

    def _decode_dc_def(self, reader: _Reader) -> Any:
        dc_id = reader.uvarint()
        if dc_id != len(self._dc_defs):
            raise CodecError(
                f"dataclass definition id {dc_id} out of order "
                f"(expected {len(self._dc_defs)})"
            )
        cls = resolve_dataclass(reader.text())
        names = tuple(reader.text() for _ in range(reader.uvarint()))
        declared = {f.name for f in dataclasses.fields(cls)}
        if set(names) != declared:
            raise CodecError(
                f"field names {names!r} do not match "
                f"{cls.__qualname__}'s fields"
            )
        self._dc_defs.append((cls, names))
        return self._instantiate(cls, names, reader)

    def _decode_dc_ref(self, reader: _Reader) -> Any:
        dc_id = reader.uvarint()
        if dc_id >= len(self._dc_defs):
            raise CodecError(f"dataclass reference {dc_id} never defined")
        cls, names = self._dc_defs[dc_id]
        return self._instantiate(cls, names, reader)

    def _instantiate(
        self, cls: type, names: tuple[str, ...], reader: _Reader
    ) -> Any:
        values = {name: self._decode(reader) for name in names}
        return cls(**values)
