"""Tests for Johnson-Zwaenepoel sender-based logging."""

from repro.analysis import check_recovery
from repro.analysis.causality import build_ground_truth
from repro.apps import RandomRoutingApp
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.protocols.sender_based import SenderBasedProcess
from repro.runtime.trace import EventKind
from repro.sim.failures import CrashPlan


def run(seed=0, crashes=None, n=4):
    spec = ExperimentSpec(
        n=n,
        app=RandomRoutingApp(hops=40, seeds=(0, 1), initial_items=3),
        protocol=SenderBasedProcess,
        crashes=crashes,
        seed=seed,
        horizon=100.0,
        config=ProtocolConfig(checkpoint_interval=10.0),
    )
    return run_experiment(spec)


def test_failure_free_runs_make_progress():
    result = run()
    assert result.total_delivered > 50
    assert result.total_rollbacks == 0


def test_orphans_are_impossible():
    """The partial-blocking rule: nobody ever depends on an unlogged state."""
    for seed in range(6):
        result = run(seed=seed, crashes=CrashPlan().crash(20.0, 1, 2.0))
        gt = build_ground_truth(result.trace, 4)
        assert gt.orphans() == set(), f"seed {seed}"
        assert result.total_rollbacks == 0


def test_oracle_passes_with_concurrent_failures():
    for seed in range(5):
        verdict = check_recovery(
            run(seed=seed, crashes=CrashPlan().concurrent(25.0, [0, 2], 3.0))
        )
        assert verdict.ok, (seed, verdict.violations)


def test_blocking_time_is_nonzero():
    """The failure-free cost: sends wait for RSN acknowledgements."""
    result = run()
    assert sum(s.blocked_time for s in result.stats) > 0


def test_recovery_needs_other_processes():
    """Not asynchronous: the restarted process exchanges control traffic."""
    quiet = run(seed=3)
    noisy = run(seed=3, crashes=CrashPlan().crash(20.0, 1, 2.0))
    # RETRIEVE + responses beyond the ack traffic of normal operation.
    assert noisy.total("control_sent") > quiet.total("control_sent")
    assert SenderBasedProcess.asynchronous_recovery is False


def test_piggyback_is_constant():
    result = run(n=8)
    assert result.protocols[0].piggyback_entry_count() == 1
    assert result.total("piggyback_entries") == result.total("app_sent")


def test_retrieved_replay_restores_states():
    for seed in range(8):
        result = run(seed=seed, crashes=CrashPlan().crash(20.0, 1, 2.0))
        if result.total("replayed") > 0:
            verdict = check_recovery(result)
            assert verdict.ok, verdict.violations
            return
    # Replay requires acked messages past the checkpoint; with these
    # parameters at least one seed exercises it.
    raise AssertionError("no seed exercised retrieve-replay")


def test_a_restart_does_not_start_the_log_flush_chain():
    """Only the checkpoint chain runs: after its restart p1 flushes its
    receiver log inside checkpoints alone, as before the crash and as its
    peers do (a restart used to arm the flush chain every process has
    but sender-based logging never starts)."""
    spec = ExperimentSpec(
        n=3,
        app=RandomRoutingApp(hops=40, seeds=(0, 1), initial_items=2),
        protocol=SenderBasedProcess,
        crashes=CrashPlan().crash(20.0, 1, 2.0),
        seed=1,
    )
    trace = run_experiment(spec).trace
    (restart,) = trace.events(EventKind.RESTART, pid=1)
    checkpoints = {e.time for e in trace.events(EventKind.CHECKPOINT, pid=1)}
    flushes = [
        e.time for e in trace.events(EventKind.LOG_FLUSH, pid=1)
        if e.time >= restart.time
    ]
    assert flushes, "p1 flushed nothing after its restart"
    assert set(flushes) <= checkpoints, sorted(set(flushes) - checkpoints)
