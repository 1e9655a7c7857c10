"""Length+CRC framing: round trips, EOF semantics, size cap, corruption."""

import asyncio
import json
import struct
import zlib

import pytest

from repro.live.framing import (
    MAX_FRAME,
    OVERHEAD,
    FramingError,
    frame,
    frame_json,
    read_frame,
    write_frame,
)


def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def _run(coro):
    return asyncio.run(coro)


def test_frame_prefixes_length_and_crc():
    framed = frame(b"abc")
    assert framed == struct.pack(">II", 3, zlib.crc32(b"abc")) + b"abc"
    assert len(framed) == OVERHEAD + 3


def test_frame_rejects_oversize():
    with pytest.raises(FramingError):
        frame(b"x" * (MAX_FRAME + 1))


def test_frame_json_is_compact_utf8_json():
    obj = {"key": "é", "seq": [1, 2], "value": None}
    assert frame_json(obj) == frame(
        json.dumps(obj, separators=(",", ":")).encode("utf-8")
    )


def test_read_roundtrip():
    async def go():
        reader = _reader_with(frame(b"one") + frame(b"") + frame(b"two"))
        assert await read_frame(reader) == b"one"
        assert await read_frame(reader) == b""
        assert await read_frame(reader) == b"two"
        assert await read_frame(reader) is None   # clean EOF

    _run(go())


def test_eof_at_boundary_is_none_not_error():
    async def go():
        assert await read_frame(_reader_with(b"")) is None

    _run(go())


def test_truncated_header_raises():
    async def go():
        with pytest.raises(FramingError):
            await read_frame(_reader_with(b"\x00\x00"))

    _run(go())


def test_payload_bit_flip_fails_crc():
    async def go():
        data = bytearray(frame(b"payload-bytes"))
        data[OVERHEAD + 3] ^= 0x10   # flip one payload bit
        with pytest.raises(FramingError, match="CRC"):
            await read_frame(_reader_with(bytes(data)))

    _run(go())


def test_crc_bit_flip_in_header_rejected():
    async def go():
        data = bytearray(frame(b"payload-bytes"))
        data[5] ^= 0x01   # flip a bit inside the CRC field itself
        with pytest.raises(FramingError, match="CRC"):
            await read_frame(_reader_with(bytes(data)))

    _run(go())


def test_truncated_body_raises():
    async def go():
        data = frame(b"hello")[:-2]
        with pytest.raises(FramingError):
            await read_frame(_reader_with(data))

    _run(go())


def test_oversize_incoming_frame_rejected_before_read():
    async def go():
        header = struct.pack(">II", MAX_FRAME + 1, 0)
        with pytest.raises(FramingError):
            await read_frame(_reader_with(header))

    _run(go())


def test_write_and_read_over_a_real_socket():
    async def go():
        received = []
        done = asyncio.Event()

        async def handler(reader, writer):
            while True:
                data = await read_frame(reader)
                if data is None:
                    break
                received.append(data)
            writer.close()
            done.set()

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        await write_frame(writer, b"first")
        await write_frame(writer, b"second")
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(done.wait(), timeout=5)
        server.close()
        await server.wait_closed()
        assert received == [b"first", b"second"]

    _run(go())


# ---------------------------------------------------------------------------
# BufferedFrameReader: bulk reads, frame batches, EOF semantics
# ---------------------------------------------------------------------------
def test_buffered_reader_returns_all_buffered_frames_in_one_batch():
    from repro.live.framing import BufferedFrameReader

    async def go():
        reader = _reader_with(frame(b"one") + frame(b"") + frame(b"two"))
        buffered = BufferedFrameReader(reader)
        frames = []
        while True:
            batch = await buffered.read_batch()
            if batch is None:
                break
            frames.extend(batch)
        assert frames == [b"one", b"", b"two"]

    _run(go())


def test_buffered_reader_clean_eof_is_none():
    from repro.live.framing import BufferedFrameReader

    async def go():
        assert await BufferedFrameReader(_reader_with(b"")).read_batch() is None

    _run(go())


def test_buffered_reader_eof_mid_frame_raises():
    from repro.live.framing import BufferedFrameReader

    async def go():
        buffered = BufferedFrameReader(_reader_with(frame(b"hello")[:-2]))
        with pytest.raises(FramingError):
            await buffered.read_batch()

    _run(go())


def test_buffered_reader_eof_mid_header_raises():
    from repro.live.framing import BufferedFrameReader

    async def go():
        buffered = BufferedFrameReader(_reader_with(b"\x00\x00"))
        with pytest.raises(FramingError):
            await buffered.read_batch()

    _run(go())


def test_buffered_reader_rejects_oversize_frame():
    from repro.live.framing import BufferedFrameReader

    async def go():
        header = struct.pack(">II", MAX_FRAME + 1, 0)
        buffered = BufferedFrameReader(_reader_with(header))
        with pytest.raises(FramingError):
            await buffered.read_batch()

    _run(go())


def test_buffered_reader_detects_payload_corruption():
    from repro.live.framing import BufferedFrameReader

    async def go():
        data = bytearray(frame(b"good") + frame(b"corrupt-me"))
        data[-2] ^= 0x40   # flip a bit in the second frame's payload
        buffered = BufferedFrameReader(_reader_with(bytes(data)))
        with pytest.raises(FramingError, match="CRC"):
            await buffered.read_batch()

    _run(go())


def test_buffered_reader_reassembles_frames_split_across_reads():
    from repro.live.framing import BufferedFrameReader

    async def go():
        data = frame(b"alpha") + frame(b"beta")
        reader = asyncio.StreamReader()
        buffered = BufferedFrameReader(reader)
        reader.feed_data(data[:3])   # partial header
        task = asyncio.ensure_future(buffered.read_batch())
        await asyncio.sleep(0.01)
        assert not task.done()
        reader.feed_data(data[3:7])  # header + part of body
        await asyncio.sleep(0.01)
        reader.feed_data(data[7:])
        reader.feed_eof()
        frames = list(await task)
        while True:
            batch = await buffered.read_batch()
            if batch is None:
                break
            frames.extend(batch)
        assert frames == [b"alpha", b"beta"]

    _run(go())


def test_buffered_reader_interoperates_with_write_frame_socket():
    from repro.live.framing import BufferedFrameReader

    async def go():
        received = []
        done = asyncio.Event()

        async def handler(reader, writer):
            buffered = BufferedFrameReader(reader)
            while True:
                batch = await buffered.read_batch()
                if batch is None:
                    break
                received.extend(batch)
            writer.close()
            done.set()

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        for payload in (b"a", b"bb", b"ccc"):
            await write_frame(writer, payload)
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(done.wait(), timeout=5)
        server.close()
        await server.wait_closed()
        assert received == [b"a", b"bb", b"ccc"]

    _run(go())
