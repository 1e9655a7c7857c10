"""Unit tests for the ground-truth trace recorder."""

import math
import os
import pickle
import subprocess
import sys

from repro.runtime.trace import EventKind, SimTrace


def test_record_and_len():
    trace = SimTrace()
    trace.record(1.0, EventKind.SEND, 0, msg_id=1)
    trace.record(2.0, EventKind.DELIVER, 1, msg_id=1)
    assert len(trace) == 2


def test_sequence_numbers_are_dense():
    trace = SimTrace()
    events = [trace.record(float(i), EventKind.CUSTOM, 0) for i in range(5)]
    assert [e.seq for e in events] == [0, 1, 2, 3, 4]


def test_filter_by_kind_and_pid():
    trace = SimTrace()
    trace.record(1.0, EventKind.SEND, 0)
    trace.record(1.0, EventKind.SEND, 1)
    trace.record(2.0, EventKind.CRASH, 0)
    assert len(trace.events(EventKind.SEND)) == 2
    assert len(trace.events(EventKind.SEND, pid=0)) == 1
    assert len(trace.events(pid=0)) == 2
    assert trace.count(EventKind.CRASH) == 1


def test_last_returns_most_recent_match():
    trace = SimTrace()
    trace.record(1.0, EventKind.CRASH, 0, count=1)
    trace.record(5.0, EventKind.CRASH, 0, count=2)
    event = trace.last(EventKind.CRASH)
    assert event is not None and event["count"] == 2
    assert trace.last(EventKind.ROLLBACK) is None


def test_field_access():
    trace = SimTrace()
    event = trace.record(1.0, EventKind.SEND, 0, msg_id=7, dst=3)
    assert event["msg_id"] == 7
    assert event.get("dst") == 3
    assert event.get("missing", "d") == "d"


def test_signature_deterministic_and_sensitive():
    t1, t2, t3 = SimTrace(), SimTrace(), SimTrace()
    for t in (t1, t2):
        t.record(1.0, EventKind.SEND, 0, msg_id=1)
        t.record(2.0, EventKind.DELIVER, 1, msg_id=1)
    t3.record(1.0, EventKind.SEND, 0, msg_id=2)   # differs
    t3.record(2.0, EventKind.DELIVER, 1, msg_id=2)
    assert t1.signature() == t2.signature()
    assert t1.signature() != t3.signature()


def fresh(value):
    """An equal copy of ``value`` that shares no object with it."""
    if isinstance(value, tuple):
        return tuple([fresh(v) for v in value])
    if isinstance(value, str):
        return "".join(list(value))
    return value


def test_signature_reads_values_not_object_identity():
    shared = ("done", "x" * 40, (1, 2))
    copies = [fresh(shared) for _ in range(4)]
    assert all(c == shared and c is not shared for c in copies)
    assert copies[0][1] is not shared[1]
    # A memoising pickler would tell the two apart:
    assert pickle.dumps([shared, shared]) != pickle.dumps(copies[:2])
    one, other = SimTrace(), SimTrace()
    for pid in (0, 1):
        one.record(1.0, EventKind.OUTPUT, pid, value=shared, uid=shared)
        other.record(
            1.0, EventKind.OUTPUT, pid,
            value=copies[2 * pid], uid=copies[2 * pid + 1],
        )
    assert one.signature() == other.signature()


def test_signature_ignores_field_keyword_order():
    one, other = SimTrace(), SimTrace()
    one.record(1.0, EventKind.DELIVER, 1, msg_id=4, uid=(1, 0, 2), replay=False)
    other.record(1.0, EventKind.DELIVER, 1, replay=False, uid=(1, 0, 2), msg_id=4)
    assert [*list(one)[0].fields] != [*list(other)[0].fields]
    assert one.signature() == other.signature()


def test_signature_sees_one_ulp_and_one_field_value():
    def digest(time, msg_id):
        trace = SimTrace()
        trace.record(0.5, EventKind.SEND, 0, msg_id=1, dst=1)
        trace.record(time, EventKind.DELIVER, 1, msg_id=msg_id)
        return trace.signature()

    base = digest(2.0, 1)
    assert digest(math.nextafter(2.0, 3.0), 1) != base
    assert digest(math.nextafter(2.0, 1.0), 1) != base
    assert digest(2.0, 2) != base
    assert digest(2.0, 1.0) != base        # an equal float is another value
    assert digest(2.0, 1) == base


def test_signature_covers_every_chunk():
    from repro.runtime.trace import _DIGEST_CHUNK

    def digest(last):
        trace = SimTrace()
        for i in range(3 * _DIGEST_CHUNK):
            trace.record(float(i), EventKind.CUSTOM, i % 3, tag=i)
        trace.record(9e9, EventKind.CUSTOM, 0, tag=last)
        return trace.signature()

    assert digest("a") != digest("b")


def test_signature_reproduces_a_golden_under_a_random_hash_seed():
    from tests.harness.test_golden_signatures import SIGNATURE

    key = "damani-garg/double-sequential-crash"
    script = (
        "from repro.harness.conformance import CONFORMANCE_SCHEDULES, "
        "PROTOCOL_REGISTRY, build_conformance_spec\n"
        "from repro.harness.runner import run_experiment\n"
        "schedule = next(s for s in CONFORMANCE_SCHEDULES "
        "if s.name == 'double-sequential-crash')\n"
        "spec = build_conformance_spec(PROTOCOL_REGISTRY['damani-garg'], "
        "schedule)\n"
        "print(run_experiment(spec).trace.signature())\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(sys.path),
        PYTHONHASHSEED="random",
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.strip() == SIGNATURE[key]


def test_iteration_order_is_record_order():
    trace = SimTrace()
    trace.record(5.0, EventKind.CUSTOM, 0, tag="first")
    trace.record(1.0, EventKind.CUSTOM, 0, tag="second")
    tags = [e["tag"] for e in trace]
    assert tags == ["first", "second"]


def test_events_refuse_attribute_assignment():
    import pytest

    event = SimTrace().record(1.0, EventKind.SEND, 0, msg_id=7)
    for name, value in (("pid", 3), ("fields", {}), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(event, name, value)
    assert (event.pid, event["msg_id"]) == (0, 7)


def test_per_kind_queries_see_every_event_in_order():
    trace = SimTrace()
    kinds = [EventKind.SEND, EventKind.DELIVER, EventKind.SEND,
             EventKind.CRASH, EventKind.SEND]
    for at, kind in enumerate(kinds):
        trace.record(float(at), kind, at % 2)
    assert [e.seq for e in trace.events(EventKind.SEND)] == [0, 2, 4]
    assert [e.seq for e in trace.events(EventKind.SEND, pid=0)] == [0, 2, 4]
    assert trace.count(EventKind.SEND, pid=1) == 0
    assert trace.last(EventKind.SEND).seq == 4
    assert trace.last(EventKind.DELIVER, pid=0) is None
    assert trace.events(EventKind.ROLLBACK) == []
    assert trace.events() == list(trace)
