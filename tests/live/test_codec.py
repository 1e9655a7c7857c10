"""Round-trip and trust-boundary tests for the live trace codec."""

import json

import pytest

from repro.core.ftvc import FaultTolerantVectorClock
from repro.core.tokens import RecoveryToken
from repro.live import codec
from repro.runtime.message import NetworkMessage


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        0,
        -17,
        3.25,
        "hello",
        [1, "two", None],
        (1, 2, ("nested", 3)),
        {"k": [1, 2]},
        {("tuple", "key"): "v"},
        {1, 2, 3},
        frozenset({("a", 1), ("b", 2)}),
        [(), {}, set()],
    ],
)
def test_roundtrip_plain_values(value):
    assert codec.decode(codec.encode(value)) == value


def test_roundtrip_preserves_types():
    value = (1, [2, (3,)], frozenset({4}))
    out = codec.decode(codec.encode(value))
    assert isinstance(out, tuple)
    assert isinstance(out[1], list)
    assert isinstance(out[1][1], tuple)
    assert isinstance(out[2], frozenset)


def test_roundtrip_ftvc():
    clock = FaultTolerantVectorClock.of([(0, 5), (1, 9), (0, 3)])
    out = codec.decode(codec.encode(clock))
    assert isinstance(out, FaultTolerantVectorClock)
    assert out == clock


def test_bare_clock_entry_travels_as_a_plain_pair():
    # A ClockEntry is a tuple subclass with no tag of its own: equal on
    # arrival, but untyped (the receiver of a gossiped frontier rebuilds
    # it -- tests/core/test_recovery_internals.py).
    entry = FaultTolerantVectorClock.of([(2, 7)])[0]
    out = codec.decode(codec.encode((1, entry)))
    assert out == (1, (2, 7)) and type(out[1]) is tuple


def test_roundtrip_repro_dataclass():
    token = RecoveryToken(
        origin=2,
        version=1,
        timestamp=40,
        full_clock=FaultTolerantVectorClock.of([(1, 40), (0, 7)]),
    )
    out = codec.decode(codec.encode(token))
    assert out == token


def test_roundtrip_network_message():
    msg = NetworkMessage(
        msg_id=7,
        src=0,
        dst=1,
        kind="token",
        payload=RecoveryToken(origin=0, version=2, timestamp=9),
        send_time=1.0,
    )
    # The trace path: encode, one JSON line, decode.
    out = codec.decode(json.loads(json.dumps(codec.encode(msg))))
    assert out == msg


def test_set_encoding_is_deterministic():
    a = codec.encode({3, 1, 2})
    b = codec.encode({2, 3, 1})
    assert a == b


def test_encode_rejects_foreign_objects():
    class NotOurs:
        pass

    with pytest.raises(codec.CodecError):
        codec.encode(NotOurs())


def test_decode_rejects_untrusted_dataclass_module():
    with pytest.raises(codec.CodecError):
        codec.decode({"__dc__": "os.path:join", "fields": {}})
    with pytest.raises(codec.CodecError):
        codec.decode(
            {"__dc__": "subprocess:Popen", "fields": {"args": "x"}}
        )


def test_decode_rejects_dotted_qualname():
    # A dotted qualname could reach attributes of trusted classes.
    with pytest.raises(codec.CodecError):
        codec.decode({"__dc__": "repro.core.tokens:RecoveryToken.origin",
                      "fields": {}})


def test_decode_rejects_unknown_markers():
    with pytest.raises(codec.CodecError):
        codec.decode({"__pickle__": "base64..."})


def test_decode_rejects_names_that_are_not_dataclasses():
    with pytest.raises(codec.CodecError):
        codec.decode({"__dc__": "repro.live.codec:CodecError", "fields": {}})
