"""check_live_run: the trace oracles for live executions."""

from repro.apps.applications import mix64
from repro.live.verify import (
    check_live_run,
    pipeline_reference,
    recovery_timeline,
)
from repro.runtime.trace import EventKind, SimTrace


def _good_trace(n=2, jobs=2):
    trace = SimTrace()
    expected = pipeline_reference(n, jobs)
    for job, value in expected.items():
        trace.record(1.0 + job, EventKind.OUTPUT, n - 1,
                     value=("done", job, value))
    return trace


def test_reference_matches_mix64_chain():
    expected = pipeline_reference(3, 1)
    value = mix64(0, 0)
    value = mix64(value, 2)
    value = mix64(value, 3)
    assert expected[0] == value


def test_clean_run_passes():
    verdict = check_live_run(_good_trace(), n=2, jobs=2)
    assert verdict.ok, verdict.failures
    assert verdict.outputs_committed == 2
    assert verdict.summary().startswith("PASS")


def test_missing_job_fails():
    trace = SimTrace()
    expected = pipeline_reference(2, 2)
    trace.record(1.0, EventKind.OUTPUT, 1, value=("done", 0, expected[0]))
    verdict = check_live_run(trace, n=2, jobs=2)
    assert not verdict.ok
    assert any("never produced output" in f for f in verdict.failures)


def test_orphan_output_value_fails():
    trace = _good_trace()
    trace.record(9.0, EventKind.OUTPUT, 1, value=("done", 0, 12345))
    verdict = check_live_run(trace, n=2, jobs=2)
    assert not verdict.ok
    assert any("orphan output" in f for f in verdict.failures)


def test_duplicate_outputs_are_counted_but_allowed():
    trace = _good_trace()
    expected = pipeline_reference(2, 2)
    trace.record(9.0, EventKind.OUTPUT, 1, value=("done", 0, expected[0]))
    verdict = check_live_run(trace, n=2, jobs=2)
    assert verdict.ok
    assert verdict.duplicate_outputs == 1


def test_crash_without_restart_fails():
    trace = _good_trace()
    trace.record(0.5, EventKind.CRASH, 0, count=1)
    verdict = check_live_run(trace, n=2, jobs=2)
    assert not verdict.ok
    assert any("never restarted" in f for f in verdict.failures)
    assert any("without broadcasting a token" in f
               for f in verdict.failures)


def test_crash_with_full_recovery_passes():
    trace = _good_trace()
    trace.record(0.5, EventKind.CRASH, 0, count=1)
    trace.record(0.9, EventKind.TOKEN_SEND, 0, version=1)
    trace.record(1.0, EventKind.RESTART, 0, version=1)
    trace.record(1.0, EventKind.CHECKPOINT, 0)
    verdict = check_live_run(trace, n=2, jobs=2)
    assert verdict.ok, verdict.failures
    assert verdict.crashes == 1
    assert verdict.restarts == 1


def test_restart_without_checkpoint_fails():
    trace = _good_trace()
    trace.record(0.5, EventKind.CRASH, 0, count=1)
    trace.record(0.9, EventKind.TOKEN_SEND, 0, version=1)
    trace.record(1.0, EventKind.RESTART, 0, version=1)
    verdict = check_live_run(trace, n=2, jobs=2)
    assert not verdict.ok
    assert any("post-restart checkpoint" in f for f in verdict.failures)


def _crash(trace, t, pid, *, version, survivors, released=True):
    """One recovery's worth of events, the way a live run leaves them."""
    trace.record(t, EventKind.CRASH, pid, count=version + 1)
    if released:
        trace.record(t + 0.50, EventKind.CUSTOM, pid,
                     what="standby_released", boot=version + 2)
    trace.record(t + 0.51, EventKind.RESTORE, pid, reason="restart")
    trace.record(t + 0.52, EventKind.TOKEN_SEND, pid, version=version)
    for index, peer in enumerate(survivors):
        trace.record(t + 0.53 + index / 100, EventKind.TOKEN_DELIVER, peer,
                     origin=pid, version=version)
        trace.record(t + 0.55 + index / 100, EventKind.CUSTOM, peer,
                     what="link_up", peer=pid, boot=1, dials=5)


def test_recovery_timeline_reads_each_kill_in_its_own_window():
    trace = SimTrace()
    trace.record(0.1, EventKind.CUSTOM, 0, what="link_up", peer=1)
    trace.record(0.2, EventKind.RESTORE, 2, reason="rollback")
    _crash(trace, 1.0, 1, version=0, survivors=[0, 2])
    trace.record(1.58, EventKind.ROLLBACK, 2, origin=1, version=0)
    _crash(trace, 3.0, 1, version=1, survivors=[0, 2], released=False)
    # A late link flap and another victim's token belong to neither step.
    trace.record(3.9, EventKind.CUSTOM, 0, what="link_up", peer=1)
    trace.record(3.95, EventKind.TOKEN_DELIVER, 0, origin=2, version=0)

    first, second = recovery_timeline(trace)
    assert (first.pid, first.kill) == (1, 1.0)
    assert [
        round(step - first.kill, 2) for step in (
            first.released, first.restart, first.token,
            first.peers_done, first.links_up,
        )
    ] == [0.50, 0.51, 0.52, 0.58, 0.56]
    assert second.released is None      # a cold respawn says nothing
    assert round(second.peers_done - second.kill, 2) == 0.54
    assert round(second.links_up - second.kill, 2) == 0.56
    assert "released" not in second.summary()
    assert first.summary().startswith("p1 kill t=1.000s -> released +0.500s")


def test_recovery_timeline_of_a_crash_nobody_recovered_from():
    trace = SimTrace()
    trace.record(2.0, EventKind.CRASH, 0, count=1)
    (timeline,) = recovery_timeline(trace)
    assert timeline.restart is None and timeline.links_up is None
    assert timeline.summary() == "p0 kill t=2.000s"
    assert recovery_timeline(SimTrace()) == []
