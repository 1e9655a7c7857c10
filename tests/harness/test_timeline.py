"""Tests for the ASCII timeline renderer."""

from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.harness.timeline import lane_summary, render_timeline
from repro.sim.failures import CrashPlan
from repro.runtime.trace import EventKind, SimTrace


def make_result():
    spec = ExperimentSpec(
        n=3,
        app=RandomRoutingApp(hops=25, seeds=(0,), initial_items=2),
        protocol=DamaniGargProcess,
        crashes=CrashPlan().crash(15.0, 1, 2.0),
        seed=2,
        horizon=60.0,
    )
    return run_experiment(spec)


def test_timeline_mentions_recovery_events():
    result = make_result()
    text = render_timeline(result.trace)
    assert "CRASH" in text
    assert "restore ckpt" in text
    assert "token" in text


def test_timeline_respects_pid_filter():
    result = make_result()
    text = render_timeline(result.trace, pids=[1])
    assert text
    for line in text.splitlines():
        if line.startswith("t="):
            assert "| P1 " in line


def test_timeline_respects_time_window():
    result = make_result()
    text = render_timeline(result.trace, start=10.0, end=20.0)
    for line in text.splitlines():
        if line.startswith("t="):
            time = float(line.split("|")[0].split("=")[1])
            assert 10.0 <= time <= 20.0


def test_timeline_limit_elides():
    result = make_result()
    text = render_timeline(result.trace, limit=5)
    lines = text.splitlines()
    assert len(lines) == 6
    assert "elided" in lines[-1]


def test_timeline_kind_filter():
    result = make_result()
    text = render_timeline(result.trace, kinds=[EventKind.CRASH])
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == 1
    assert "CRASH" in lines[0]


def test_empty_trace_renders_empty():
    assert render_timeline(SimTrace()) == ""


def test_lane_summary_counts():
    result = make_result()
    summary = lane_summary(result.trace, 3)
    lines = summary.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("P1:")
    assert "crash=1" in lines[1]


def test_send_and_output_glyphs():
    trace = SimTrace()
    trace.record(1.0, EventKind.SEND, 0, msg_id=1, dst=2, uid=(0, 0, 0))
    trace.record(2.0, EventKind.OUTPUT, 1, value=42, committed=True,
                 uid=(1, 0, 1))
    text = render_timeline(
        trace, kinds=[EventKind.SEND, EventKind.OUTPUT]
    )
    assert "m#1 to P2" in text
    assert "output 42 (committed)" in text
