"""LiveEnv: clock, message ids, broadcast fan-out, event-loop timers."""

import asyncio
import io
import json
import time

from repro.core.ftvc import FaultTolerantVectorClock
from repro.harness.conformance import (
    CONFORMANCE_SCHEDULES,
    PROTOCOL_REGISTRY,
    build_conformance_spec,
)
from repro.harness.runner import run_experiment
from repro.live import codec
from repro.live.env import LiveEnv, LiveTrace, merge_traces
from repro.runtime.env import RuntimeEnv
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind
from repro.service.kv import KVPut, KVReply, KVServiceApp
from repro.sim.failures import CrashPlan
from tests.service.test_exactly_once import _boot, _settle


class FakeTransport:
    def __init__(self):
        self.sent = []

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def attach(self, protocol):
        self.protocol = protocol


def _env(pid=0, n=4, crash_count=0, epoch=None, mono_anchor=None):
    return LiveEnv(
        pid=pid,
        n=n,
        storage=None,
        transport=FakeTransport(),
        epoch=time.time() if epoch is None else epoch,
        crash_count=crash_count,
        mono_anchor=mono_anchor,
    )


def test_is_a_runtime_env():
    assert isinstance(_env(), RuntimeEnv)


def test_now_is_relative_to_epoch():
    env = _env(epoch=time.time() - 10.0)
    assert 9.5 < env.now < 11.0


def test_alive_is_always_true():
    assert _env().alive is True


def test_send_builds_the_envelope():
    env = _env(pid=2)
    msg = env.send(3, "payload", kind="token")
    assert isinstance(msg, NetworkMessage)
    assert (msg.src, msg.dst, msg.kind, msg.payload) == (2, 3, "token",
                                                         "payload")
    assert env.transport.sent == [(3, msg)]


def test_broadcast_excludes_self_by_default():
    env = _env(pid=1, n=4)
    sent = env.broadcast("tok")
    assert [m.dst for m in sent] == [0, 2, 3]
    included = env.broadcast("tok", include_self=True)
    assert [m.dst for m in included] == [0, 1, 2, 3]


def test_msg_ids_unique_across_pids_and_incarnations():
    ids = set()
    for pid in range(3):
        for boot in range(3):
            env = _env(pid=pid, crash_count=boot)
            for _ in range(5):
                msg = env.send(0, "x")
                assert msg.msg_id not in ids
                ids.add(msg.msg_id)


def test_schedule_after_fires_on_the_loop():
    async def go():
        env = _env()
        fired = asyncio.Event()
        handle = env.schedule_after(0.01, fired.set)
        assert handle.time >= env.now
        await asyncio.wait_for(fired.wait(), timeout=2)

    asyncio.run(go())


def test_cancelled_timer_does_not_fire():
    async def go():
        env = _env()
        fired = []
        handle = env.schedule_after(0.02, lambda: fired.append(1))
        handle.cancel()
        assert handle.cancelled
        await asyncio.sleep(0.08)
        assert fired == []

    asyncio.run(go())


def test_trace_roundtrip_through_merge(tmp_path):
    path_a = str(tmp_path / "a.jsonl")
    path_b = str(tmp_path / "b.jsonl")
    with open(path_a, "w", encoding="utf-8") as fh:
        trace = LiveTrace(fh)
        trace.record(1.0, EventKind.SEND, 0, value=("done", 3, 12))
        trace.record(3.0, EventKind.OUTPUT, 0, value=("done", 3, 12))
    with open(path_b, "w", encoding="utf-8") as fh:
        trace = LiveTrace(fh)
        trace.record(2.0, EventKind.CRASH, 1, count=1)

    merged = merge_traces([path_a, path_b])
    events = merged.events()
    assert [e.kind for e in events] == [
        EventKind.SEND, EventKind.CRASH, EventKind.OUTPUT
    ]
    # Tuples survive the codec round trip (the oracles depend on it).
    assert merged.events(EventKind.OUTPUT)[0].get("value") == ("done", 3, 12)


def _recorded_events():
    """Every event of a pipeline run and of a KV run through a crash."""
    for schedule in CONFORMANCE_SCHEDULES:
        yield from run_experiment(
            build_conformance_spec(PROTOCOL_REGISTRY["damani-garg"], schedule)
        ).trace
    app = KVServiceApp(replicas=3)
    primary = app.primary_for("a")
    plan = CrashPlan()
    plan.crash(5.0, primary, 2.0)
    sim, trace, _, protocols, _ = _boot(crashes=plan)
    for t in (1.0, 2.0, 6.0, 12.0):
        sim.schedule(
            t,
            lambda t=t: protocols[0].inject_app_send(
                primary, KVPut(key="a", value=int(t), op_id=(7, int(t)))
            ),
        )
    _settle(sim, protocols, horizon=40.0)
    yield from trace


def test_trace_lines_are_byte_identical_to_the_codec_reference():
    """Records written through the shared compact encoder are exactly what
    codec.encode + json.dumps wrote, for every field type a run records."""
    clock = FaultTolerantVectorClock.initial(1, 3)
    reply = KVReply(op_id=(7, 8), key="a", value=None, version=3)
    events = [
        (e.time, e.kind, e.pid, e.fields) for e in _recorded_events()
    ]
    events.append((0.5, EventKind.CUSTOM, 2, {
        "clock": clock, "reply": reply, "ids": {3, 1, 2},
        "frozen": frozenset({"b", "a"}), "nested": (1, (2, 3)),
        "mixed": ("x", 1.5, True, None), "empty": (), "holder": (reply,),
        "clocks": (clock,), "listed": [1, (2,)], "mapping": {"k": (1, 2)},
        "flag": False, "nothing": None, "ratio": 0.25,
    }))
    buf = io.StringIO()
    trace = LiveTrace(buf, buffer_records=1)
    expected = []
    seen = set()
    for time_, kind, pid, fields in events:
        trace.record(time_, kind, pid, **fields)
        expected.append(json.dumps(
            {
                "t": time_, "kind": kind.value, "pid": pid,
                "fields": {k: codec.encode(v) for k, v in fields.items()},
            },
            separators=(",", ":"),
        ) + "\n")
        seen.update(type(v).__name__ for v in fields.values())
    assert buf.getvalue() == "".join(expected)
    assert {
        "FaultTolerantVectorClock", "KVReply", "set", "frozenset", "tuple",
        "list", "dict", "bool", "float", "NoneType", "int", "str",
    } <= seen


class TestMonotonicAnchor:
    def test_explicit_anchor_defines_env_time(self):
        env = _env(epoch=time.time(), mono_anchor=time.monotonic() - 5.0)
        assert 4.9 < env.now < 5.2

    def test_now_never_consults_the_wall_clock(self, monkeypatch):
        """Regression for the negative-latency bug: after construction,
        env-time must be immune to wall-clock steps (NTP, VM resume)."""
        env = _env(epoch=time.time())
        before = env.now
        monkeypatch.setattr(time, "time", lambda: 0.0)   # step to 1970
        after = env.now
        assert after >= before
        assert after - before < 1.0

    def test_env_time_is_monotonic(self):
        env = _env(epoch=time.time())
        samples = [env.now for _ in range(100)]
        assert samples == sorted(samples)
        assert all(s >= 0.0 for s in samples)

    def test_default_anchor_matches_epoch_offset(self):
        env = _env(epoch=time.time() - 3.0)
        assert 2.9 < env.now < 3.3
