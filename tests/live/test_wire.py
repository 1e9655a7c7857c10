"""The binary wire codec: framing, value roundtrips, delta chains,
dataclass interning, and the version/legacy-JSON dispatch rules."""

import dataclasses
import json

import pytest

from repro.core.ftvc import FaultTolerantVectorClock as FTVC
from repro.core.tokens import RecoveryToken
from repro.live import wire
from repro.live.codec import CodecError
from repro.live.wire import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_HELLO,
    MAGIC,
    WIRE_VERSION,
    WireDecoder,
    WireEncoder,
    ack_frame,
    frame_type,
    hello_frame,
    is_binary,
    parse_ack,
    parse_hello,
)


def roundtrip(value):
    return WireDecoder().decode_value(WireEncoder().encode_value(value))


class TestValueRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            1 << 40,
            -(1 << 40),
            3.14159,
            float("inf"),
            "",
            "héllo ↯",
            [1, "two", None],
            (1, (2, 3)),
            {"k": [1, 2], "nested": {"a": None}},
            {1, 2, 3},
            frozenset({("a", 1), ("b", 2)}),
        ],
    )
    def test_scalar_and_container_roundtrip(self, value):
        result = roundtrip(value)
        assert result == value
        assert type(result) is type(value)

    def test_bool_is_not_decoded_as_int(self):
        assert roundtrip(True) is True
        assert roundtrip(1) == 1 and roundtrip(1) is not True

    def test_clock_roundtrip(self):
        clock = FTVC.of([(0, 5), (2, 0), (1, 9)])
        assert roundtrip(clock) == clock

    def test_bare_clock_entry_travels_as_a_plain_pair(self):
        # Only clocks have wire tags; a lone entry (the stability gossip
        # payload) is a tuple subclass and arrives as the equal tuple.
        out = roundtrip((1, FTVC.of([(2, 7)])[0]))
        assert out == (1, (2, 7)) and type(out[1]) is tuple

    def test_unencodable_type_raises(self):
        with pytest.raises(CodecError):
            WireEncoder().encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(CodecError):
            WireDecoder().decode_value(b"\xff")

    def test_trailing_bytes_raise(self):
        data = WireEncoder().encode_value(1) + b"\x00"
        with pytest.raises(CodecError):
            WireDecoder().decode_value(data)


class TestFrames:
    def test_hello_roundtrip(self):
        frame = hello_frame(3, 7)
        assert is_binary(frame)
        assert frame_type(frame) == FRAME_HELLO
        assert parse_hello(frame) == (3, 7)

    def test_ack_roundtrip(self):
        frame = ack_frame(12345)
        assert frame_type(frame) == FRAME_ACK
        assert parse_ack(frame) == 12345

    def test_data_frame_roundtrip(self):
        enc, dec = WireEncoder(), WireDecoder()
        frame = enc.data_frame(42, {"payload": [1, 2]})
        assert frame_type(frame) == FRAME_DATA
        assert dec.decode_data(frame) == (42, {"payload": [1, 2]})

    def test_json_frames_are_not_binary(self):
        # A legacy JSON frame starts with '{': it is not a wire frame,
        # and the transport's read sides refuse it like a corrupt one.
        from repro.live.framing import FramingError
        from repro.live.transport import _parse
        from repro.live.wire import parse_ack

        legacy = json.dumps({"ack": 3}).encode("utf-8")
        assert not is_binary(legacy)
        assert is_binary(bytes([MAGIC, WIRE_VERSION, FRAME_ACK]))
        with pytest.raises(FramingError):
            _parse(legacy, FRAME_ACK, parse_ack)

    def test_unknown_wire_version_is_rejected(self):
        frame = bytearray(hello_frame(0, 1))
        frame[1] = WIRE_VERSION + 1
        with pytest.raises(CodecError, match="version"):
            frame_type(bytes(frame))

    def test_truncated_header_is_rejected(self):
        with pytest.raises(CodecError):
            frame_type(bytes([MAGIC]))


class TestDeltaChain:
    def test_second_clock_on_a_connection_is_a_delta(self):
        enc, dec = WireEncoder(), WireDecoder()
        clock = FTVC.initial(0, 8)
        first = enc.encode_value(clock)
        clock2 = clock.tick(0)
        second = enc.encode_value(clock2)
        assert len(second) < len(first)
        assert dec.decode_value(first) == clock
        assert dec.decode_value(second) == clock2

    def test_fresh_connection_restarts_with_a_full_clock(self):
        # A reconnect builds a fresh encoder: its first clock must be
        # decodable with no prior state (the full-clock fallback).
        enc = WireEncoder()
        clock = FTVC.initial(0, 4).tick(0)
        enc.encode_value(clock)         # chain warmed up
        reconnect_enc, reconnect_dec = WireEncoder(), WireDecoder()
        frame = reconnect_enc.encode_value(clock)
        assert reconnect_dec.decode_value(frame) == clock

    def test_delta_with_no_prior_clock_is_rejected(self):
        enc = WireEncoder()
        clock = FTVC.initial(0, 4)
        enc.encode_value(clock)
        delta_frame = enc.encode_value(clock.tick(0))
        with pytest.raises(CodecError, match="no prior clock"):
            WireDecoder().decode_value(delta_frame)

    def test_duplicate_frames_keep_the_chain_in_lockstep(self):
        # The transport decodes every data frame it reads, including
        # dedup-dropped duplicates; a re-decoded delta must be a no-op.
        enc, dec = WireEncoder(), WireDecoder()
        clock = FTVC.initial(0, 4)
        clock2 = clock.tick(0)
        clock3 = clock2.tick(0)
        f1, f2, f3 = (enc.encode_value(c) for c in (clock, clock2, clock3))
        assert dec.decode_value(f1) == clock
        assert dec.decode_value(f2) == clock2
        assert dec.decode_value(f2) == clock2      # duplicate
        assert dec.decode_value(f3) == clock3

    def test_wholesale_change_falls_back_to_full_encoding(self):
        enc, dec = WireEncoder(), WireDecoder()
        clock = FTVC.of([(0, 1), (0, 2), (0, 3)])
        enc.encode_value(clock)
        changed = FTVC.of([(1, 0), (1, 0), (1, 0)])
        frame = enc.encode_value(changed)
        assert frame[0] == wire._T_FTVC_FULL
        assert dec is not None  # decoder unused: full frames are stateless

    def test_long_chain_roundtrips(self):
        enc, dec = WireEncoder(), WireDecoder()
        clock = FTVC.initial(0, 5)
        for step in range(30):
            clock = clock.tick(step % 5)
            if step == 10:
                clock = clock.restart(2)
            assert dec.decode_value(enc.encode_value(clock)) == clock


class TestDataclassInterning:
    def test_second_instance_is_smaller_and_equal(self):
        enc, dec = WireEncoder(), WireDecoder()
        a = RecoveryToken(origin=1, version=2, timestamp=7)
        b = RecoveryToken(origin=1, version=3, timestamp=9)
        first = enc.encode_value(a)
        second = enc.encode_value(b)
        assert len(second) < len(first)     # DC_REF drops path + fields
        assert dec.decode_value(first) == a
        assert dec.decode_value(second) == b

    def test_reference_before_definition_is_rejected(self):
        enc = WireEncoder()
        enc.encode_value(RecoveryToken(origin=0, version=0, timestamp=0))
        ref_frame = enc.encode_value(
            RecoveryToken(origin=0, version=1, timestamp=0)
        )
        with pytest.raises(CodecError, match="never defined"):
            WireDecoder().decode_value(ref_frame)

    def test_non_repro_dataclass_is_refused(self):
        @dataclasses.dataclass
        class Sneaky:
            x: int

        with pytest.raises(CodecError, match="non-repro"):
            WireEncoder().encode_value(Sneaky(x=1))


# ---------------------------------------------------------------------------
# The byte image, pinned
# ---------------------------------------------------------------------------
def _golden_messages():
    from repro.core.recovery import AppEnvelope
    from repro.runtime.message import NetworkMessage

    first = FTVC.of([(0, 5), (1, 200)])
    return [
        NetworkMessage(
            msg_id=1, src=0, dst=1, kind="app",
            payload=AppEnvelope(
                payload={"k": [1, -1, 63, 64, 300, -70000], "on": True,
                         "off": None},
                clock=first, dedup_id=(0, 1),
            ),
            send_time=0.25,
        ),
        NetworkMessage(
            msg_id=2, src=0, dst=1, kind="app",
            payload=AppEnvelope(
                payload=(first[1], {3, 1, 2}, frozenset({"b", "a"}), False,
                         -1.5e300),
                clock=first.tick(0), dedup_id=(0, 2),
            ),
            send_time=1.0, latency_override=0.5,
        ),
        NetworkMessage(
            msg_id=3, src=1, dst=0, kind="token",
            payload=RecoveryToken(origin=1, version=2, timestamp=1 << 40),
            send_time=2.0,
        ),
    ]


#: The wire image of version 1, byte for byte: a hello, an ack and three
#: data frames on one connection -- a full clock then a delta, DC_DEF then
#: DC_REF, 1- and multi-byte varints, negative ints, a ClockEntry, sets, a
#: dict, floats, None and bools.  A change here is a new WIRE_VERSION.
_GOLDEN_FRAMES = [
    "b50101ac0207",
    "b50103808080808001",
    (
        "b50102010b0024726570726f2e72756e74696d652e6d6573736167653a4e6574"
        "776f726b4d65737361676507066d73675f69640373726303647374046b696e64"
        "077061796c6f61640973656e645f74696d65106c6174656e63795f6f76657272"
        "69646503020300030205036170700b011f726570726f2e636f72652e7265636f"
        "766572793a417070456e76656c6f706503077061796c6f616405636c6f636b08"
        "64656475705f69640a0305016b060603020301037e03800103d80403dfc50805"
        "026f6e0105036f6666000d02000501c801070203000302043fd0000000000000"
        "00"
    ),
    (
        "b50102020c0003040300030205036170700c0107050702030203900308030302"
        "0304030609020501610501620204fe41eb2d660058350e010000060702030003"
        "04043ff0000000000000043fe0000000000000"
    ),
    (
        "b50102c8010c000306030203000505746f6b656e0b021f726570726f2e636f72"
        "652e746f6b656e733a5265636f76657279546f6b656e04066f726967696e0776"
        "657273696f6e0974696d657374616d700a66756c6c5f636c6f636b0302030403"
        "8080808080400004400000000000000000"
    ),
]


def test_frames_are_byte_identical_to_the_pinned_image():
    encoder, decoder = WireEncoder(), WireDecoder()
    seqs = (1, 2, 200)
    frames = [hello_frame(300, 7), ack_frame(1 << 35)] + [
        encoder.data_frame(seq, msg)
        for seq, msg in zip(seqs, _golden_messages())
    ]
    assert [frame.hex() for frame in frames] == _GOLDEN_FRAMES
    assert parse_hello(frames[0]) == (300, 7)
    assert parse_ack(frames[1]) == 1 << 35
    decoded = [decoder.decode_data(frame) for frame in frames[2:]]
    assert decoded == list(zip(seqs, _golden_messages()))


# ---------------------------------------------------------------------------
# Malformed clocks and dataclasses are codec errors
# ---------------------------------------------------------------------------
#: CRC-valid data frames whose clock cannot be built: a delta naming
#: entry 7 of a 2-entry clock, and a full clock with no entries.
_BAD_DELTA = b"\xb5\x01\x02\x02\x0e\x01\x07\x00\x05"
_EMPTY_CLOCK = b"\xb5\x01\x02\x03\x0d\x00"


def _primed_decoder():
    decoder = WireDecoder()
    frame = WireEncoder().data_frame(1, FTVC.of([(0, 1), (0, 2)]))
    assert decoder.decode_data(frame) == (1, FTVC.of([(0, 1), (0, 2)]))
    return decoder


@pytest.mark.parametrize("data", [_BAD_DELTA, _EMPTY_CLOCK])
def test_malformed_clock_is_a_codec_error(data):
    with pytest.raises(CodecError, match="clock"):
        _primed_decoder().decode_data(data)


@pytest.mark.parametrize("data", [_BAD_DELTA, _EMPTY_CLOCK])
def test_malformed_clock_is_a_framing_error_at_the_transport(data):
    from repro.live.framing import FramingError
    from repro.live.transport import _parse

    decoder = _primed_decoder()
    with pytest.raises(FramingError, match="undecodable"):
        _parse(data, FRAME_DATA, decoder.decode_data)


def test_dataclass_its_constructor_refuses_is_a_codec_error():
    # A RecoveryToken with origin -1: its own check raises ValueError,
    # which must not escape the decoder as one.
    frame = WireEncoder().data_frame(
        1, RecoveryToken(origin=1, version=2, timestamp=3)
    )
    fields = b"\x03\x02\x03\x04\x03\x06\x00"    # 1, 2, 3, None
    assert frame.endswith(fields)
    bad = frame[: -len(fields)] + b"\x03\x01" + fields[2:]
    with pytest.raises(CodecError, match="RecoveryToken"):
        WireDecoder().decode_data(bad)


@pytest.mark.parametrize(
    "data",
    [
        b"\x08\x01\x06\x00",          # a set holding a list
        b"\x0a\x01\x06\x00\x00",      # a dict keyed by a list
        b"\x05\x01\xff",              # a string that is not UTF-8
    ],
)
def test_unbuildable_values_are_codec_errors(data):
    with pytest.raises(CodecError, match="malformed"):
        WireDecoder().decode_value(data)


def test_truncated_frames_are_codec_errors():
    frame = WireEncoder().data_frame(1, _golden_messages()[0])
    for cut in range(3, len(frame)):
        with pytest.raises(CodecError):
            WireDecoder().decode_data(frame[:cut])
