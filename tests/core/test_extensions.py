"""Tests for the Section 6.5 extensions: output commit and GC."""

from repro.analysis import check_recovery
from repro.apps import PipelineApp, RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan
from repro.runtime.trace import EventKind


def run(app=None, crashes=None, seed=0, *, commit=False, gc=False,
        stability=4.0, horizon=90.0):
    spec = ExperimentSpec(
        n=4,
        app=app or RandomRoutingApp(hops=40, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=crashes,
        seed=seed,
        horizon=horizon,
        config=ProtocolConfig(
            checkpoint_interval=8.0,
            flush_interval=2.5,
            commit_outputs=commit,
            enable_gc=gc,
            gossip_interval=stability,
        ),
    )
    return run_experiment(spec)


def collected(protocol):
    """(checkpoints, log entries) garbage collection reclaimed: every
    checkpoint below the oldest retained one, and the log prefix."""
    oldest = min(ckpt.ckpt_id for ckpt in protocol.storage.checkpoints)
    log = protocol.storage.log
    return oldest, log.stable_length - log.retained_stable_entries


class TestGarbageCollection:
    def test_space_is_reclaimed(self):
        result = run(gc=True)
        for protocol in result.protocols:
            checkpoints, entries = collected(protocol)
            assert checkpoints > 0 and entries > 0

    def test_recovery_still_correct_with_gc(self):
        for seed in range(5):
            result = run(
                gc=True,
                seed=seed,
                crashes=CrashPlan().crash(20.0, 1, 2.0).crash(45.0, 2, 2.0),
            )
            verdict = check_recovery(result)
            assert verdict.ok, (seed, verdict.violations)

    def test_gc_never_reclaims_what_a_rollback_needs(self):
        """Concurrent failures, aggressive sweeps: replay must never hit a
        collected log entry (which would raise inside the protocol)."""
        for seed in range(5):
            result = run(
                gc=True,
                stability=2.0,
                seed=seed,
                crashes=CrashPlan().concurrent(25.0, [0, 2], 3.0),
            )
            assert check_recovery(result).ok

    def test_no_gc_without_flag(self):
        result = run(gc=False)
        for protocol in result.protocols:
            assert collected(protocol) == (0, 0)


class TestOutputCommit:
    def test_all_pipeline_outputs_commit_exactly_once(self):
        for seed in range(5):
            result = run(
                app=PipelineApp(jobs=10),
                crashes=CrashPlan().crash(6.0, 2, 2.0),
                seed=seed,
                commit=True,
            )
            sink = result.protocols[3]
            job_ids = [value[1] for _, value in sink.outputs]
            assert sorted(job_ids) == list(range(10))

    def test_commits_are_marked_in_trace(self):
        result = run(app=PipelineApp(jobs=8), commit=True)
        committed = [
            e
            for e in result.trace.events(EventKind.OUTPUT)
            if e.get("committed") is True
        ]
        assert len(committed) == 8

    def test_no_output_from_an_undone_state_is_committed(self):
        from repro.analysis.causality import build_ground_truth

        for seed in range(8):
            result = run(
                app=PipelineApp(jobs=10),
                crashes=CrashPlan().crash(6.0, 2, 2.0),
                seed=seed,
                commit=True,
            )
            gt = build_ground_truth(result.trace, 4)
            dead = gt.undone() | gt.lost
            for event in result.trace.events(EventKind.OUTPUT):
                if event.get("committed") is True:
                    assert event["uid"] not in dead

    def test_commit_waits_for_stability(self):
        """An output is never committed before the sweep that certifies
        it: committed=True events only appear at stability sweeps."""
        result = run(app=PipelineApp(jobs=6), commit=True)
        emitted = {
            e["uid"]: e.seq
            for e in result.trace.events(EventKind.OUTPUT)
            if e.get("committed") is False
        }
        for event in result.trace.events(EventKind.OUTPUT):
            if event.get("committed") is True:
                assert event.seq > emitted[event["uid"]]


class TestStabilityGossip:
    def test_rounds_run_on_schedule(self):
        # Every process broadcasts to its 3 peers at t = 5, 10, ..., 60
        # and once more after the drain.
        result = run(stability=5.0, horizon=60.0)
        assert result.network.sent_count["frontier"] == 13 * 4 * 3

    def test_gossip_survives_crashes(self):
        result = run(
            gc=True,
            crashes=CrashPlan().crash(20.0, 1, 2.0),
        )
        # The failed process rejoins the gossip with its new incarnation's
        # frontier: it reclaims every checkpoint of the failed one.
        for ckpt in result.protocols[1].storage.checkpoints:
            assert ckpt.extras["clock"][1].version == 1
