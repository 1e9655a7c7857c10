"""check_shard_trace: the trace-side oracle every service run is graded by."""

from repro.runtime.trace import EventKind, SimTrace
from repro.service.bench import check_shard_trace


def _recovered_trace():
    trace = SimTrace()
    trace.record(0.5, EventKind.CRASH, 0, count=1)
    trace.record(0.9, EventKind.TOKEN_SEND, 0, version=1)
    trace.record(1.0, EventKind.RESTART, 0, version=1)
    trace.record(1.0, EventKind.CHECKPOINT, 0)
    return trace


def test_clean_trace_is_ok():
    assert check_shard_trace(_recovered_trace()) == {
        "ok": True,
        "failures": [],
        "crashes": 1,
        "restarts": 1,
        "tokens": 1,
    }


def test_crash_without_restart_or_token_fails_twice():
    trace = SimTrace()
    trace.record(0.5, EventKind.CRASH, 0, count=1)
    report = check_shard_trace(trace)
    assert not report["ok"]
    assert report["failures"] == [
        "p0 crashed at t=0.500 and never restarted",
        "p0 recovered without broadcasting a token",
    ]


def test_restart_without_checkpoint_fails():
    trace = SimTrace()
    trace.record(0.5, EventKind.CRASH, 0, count=1)
    trace.record(0.9, EventKind.TOKEN_SEND, 0, version=1)
    trace.record(1.0, EventKind.RESTART, 0, version=1)
    report = check_shard_trace(trace)
    assert not report["ok"]
    assert report["failures"] == [
        "p0 restarted at t=1.000 without a post-restart checkpoint"
    ]
