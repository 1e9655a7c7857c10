"""Length-prefixed, checksummed framing for the live TCP links.

Each frame is an 8-byte big-endian header -- 4 bytes of payload length
followed by 4 bytes of CRC32 over the payload -- and then the payload
itself: a binary wire frame (:mod:`repro.live.wire`, first byte 0xB5) on
a TCP link, a storage record in the record log, a compact JSON object
(:func:`frame_json`) between a KV client and the service.

The length cap rejects corrupt prefixes before they turn into a
multi-gigabyte read; the CRC rejects everything subtler.  TCP's own
checksum is 16 bits and famously misses real corruption, and a bit flip
inside a binary frame can decode *successfully* into a wrong value --
which the protocol would then treat as real application state.  With the
CRC, any corrupted frame (header or payload) surfaces as a
:class:`FramingError`; the receiver drops the connection and the
sender's outbox retransmits everything unacknowledged on redial, so
corruption degrades into the crash/reconnect case the recovery protocol
already handles.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from typing import Any

#: Refuse frames larger than this (a live token or envelope is ~KBs).
MAX_FRAME = 16 * 1024 * 1024

#: Compact JSON text, from one encoder built once (``json.dumps`` with
#: non-default ``separators`` builds a new encoder on every call).
compact_json = json.JSONEncoder(separators=(",", ":")).encode

_HEADER = struct.Struct(">II")

#: Framing bytes added per frame on the wire (length + CRC32 header);
#: byte accounting in the transport uses this, not a literal.
OVERHEAD = _HEADER.size


class FramingError(ConnectionError):
    """Raised for oversized, truncated, or corrupt frames."""


def frame(payload: bytes, *, cap: int = MAX_FRAME) -> bytes:
    """Prefix ``payload`` with its length and CRC32."""
    if len(payload) > cap:
        raise FramingError(f"frame of {len(payload)} bytes exceeds cap")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def frame_json(obj: Any) -> bytes:
    """Frame ``obj`` as compact UTF-8 JSON (the KV service's client wire)."""
    return frame(compact_json(obj).encode("utf-8"))


def _check_crc(payload: bytes, crc: int) -> bytes:
    if zlib.crc32(payload) != crc:
        raise FramingError(
            f"frame of {len(payload)} bytes failed its CRC check"
        )
    return payload


def parse_frame(buf: bytes, pos: int = 0, *, cap: int = MAX_FRAME) -> bytes | None:
    """Payload of the frame that starts at ``buf[pos]``.

    ``None`` when the buffer ends before the frame does; raises
    :class:`FramingError` for an oversized length or a CRC mismatch.
    The synchronous counterpart of :func:`read_frame`, for frames at
    rest (the storage record log) rather than on a socket.
    """
    if len(buf) - pos < _HEADER.size:
        return None
    length, crc = _HEADER.unpack_from(buf, pos)
    if length > cap:
        raise FramingError(f"frame of {length} bytes at {pos} exceeds cap")
    start = pos + _HEADER.size
    if start + length > len(buf):
        return None
    return _check_crc(bytes(buf[start:start + length]), crc)


async def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    writer.write(frame(payload))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FramingError("connection closed mid-header") from exc
    length, crc = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FramingError(f"incoming frame of {length} bytes exceeds cap")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FramingError("connection closed mid-frame") from exc
    return _check_crc(payload, crc)


class BufferedFrameReader:
    """Batch frame reader: one ``read()`` syscall yields many frames.

    :func:`read_frame` costs two ``readexactly`` awaits per frame, which
    under load means two scheduler round-trips per message.  This reader
    pulls whatever the socket has (up to ``chunk``) into one buffer and
    slices out every complete frame, so a burst of small frames costs one
    await.  Used by both transport receive loops; the framing on the wire
    is unchanged.
    """

    __slots__ = ("_reader", "_buf", "_chunk")

    def __init__(
        self, reader: asyncio.StreamReader, *, chunk: int = 1 << 16
    ) -> None:
        self._reader = reader
        self._buf = bytearray()
        self._chunk = chunk

    def _split(self) -> list[bytes]:
        """Slice every complete frame out of the buffer."""
        frames: list[bytes] = []
        buf = self._buf
        pos = 0
        available = len(buf)
        while available - pos >= _HEADER.size:
            length, crc = _HEADER.unpack_from(buf, pos)
            if length > MAX_FRAME:
                raise FramingError(
                    f"incoming frame of {length} bytes exceeds cap"
                )
            end = pos + _HEADER.size + length
            if end > available:
                break
            frames.append(
                _check_crc(bytes(buf[pos + _HEADER.size:end]), crc)
            )
            pos = end
        if pos:
            del buf[:pos]
        return frames

    async def read_batch(self) -> list[bytes] | None:
        """Every complete frame currently available (at least one), or
        ``None`` on clean EOF at a frame boundary.  Raises
        :class:`FramingError` on EOF mid-frame."""
        while True:
            frames = self._split()
            if frames:
                return frames
            data = await self._reader.read(self._chunk)
            if not data:
                if self._buf:
                    raise FramingError("connection closed mid-frame")
                return None
            self._buf += data
