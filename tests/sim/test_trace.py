"""Unit tests for the ground-truth trace recorder."""

from repro.sim.trace import EventKind, SimTrace


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
