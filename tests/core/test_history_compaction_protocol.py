"""History compaction under the full protocol (simulator engine).

The GC boundary satellite: records may be dropped only once a token for
a *newer* version of the same process has been durably observed, and a
run that crashes after (or during) compaction sweeps must still pass the
recovery oracles.  The live-cluster counterpart of these tests is in
``tests/live/test_cluster.py``.
"""

from repro.analysis.consistency import check_recovery
from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan


def _spec(*, crashes, config, seed=0, horizon=110.0, **kwargs):
    return ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=50, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=crashes,
        seed=seed,
        horizon=horizon,
        config=config,
        **kwargs,
    )


def test_failure_free_run_compacts_nothing():
    # No failures -> no tokens -> every record's killing token is still
    # unobserved, so compaction must not touch a thing.
    spec = _spec(
        crashes=None,
        config=ProtocolConfig(
            checkpoint_interval=8.0, flush_interval=2.5,
            compact_history=True, gossip_interval=6.0,
        ),
    )
    result = run_experiment(spec)
    assert result.total("history_compacted") == 0
    for protocol in result.protocols:
        assert all(protocol.history.floor(j) == 0 for j in range(4))


def test_single_failure_keeps_the_restoration_point():
    # One crash produces one token (version 0).  That token is the live
    # restoration point for Lemma 4 -- no newer token supersedes it --
    # so compaction keeps it and the floor stays put.
    spec = _spec(
        crashes=CrashPlan().crash(20.0, 1, 2.0),
        config=ProtocolConfig(
            checkpoint_interval=8.0, flush_interval=2.5,
            compact_history=True, gossip_interval=6.0,
        ),
    )
    result = run_experiment(spec)
    assert result.total("history_compacted") == 0
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations


def test_repeated_failures_compact_superseded_records():
    # Two crashes of the same process: token v1 supersedes token v0, so
    # sweeps after the second recovery drop the v0 records everywhere
    # while the run stays oracle-clean.
    spec = _spec(
        crashes=CrashPlan().crash(20.0, 1, 2.0).crash(45.0, 1, 2.0),
        config=ProtocolConfig(
            checkpoint_interval=8.0, flush_interval=2.5,
            compact_history=True, gossip_interval=6.0,
        ),
    )
    result = run_experiment(spec)
    assert result.total("history_compacted") > 0
    floors = [
        p.history.floor(1) for p in result.protocols if p.pid != 1
    ]
    assert any(f >= 1 for f in floors)
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations


def test_crash_after_compaction_stays_recoverable():
    # The crash-during/after-compaction boundary: a third failure (of a
    # different process) lands after sweeps have already advanced the
    # floors; its recovery runs over compacted histories and restored
    # checkpoints that carry compacted snapshots.
    spec = _spec(
        crashes=(
            CrashPlan()
            .crash(20.0, 1, 2.0)
            .crash(40.0, 1, 2.0)
            .crash(70.0, 2, 2.0)
        ),
        config=ProtocolConfig(
            checkpoint_interval=8.0, flush_interval=2.5,
            compact_history=True, enable_gc=True, gossip_interval=6.0,
        ),
    )
    result = run_experiment(spec)
    assert result.total("history_compacted") > 0
    assert result.total_restarts >= 3
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations


def test_history_stays_O_n_with_compaction():
    # Section 6.9: with compaction the table is O(n) per process (one
    # live restoration point plus message records), not O(n * f).
    crashes = CrashPlan()
    for i in range(4):
        crashes = crashes.crash(15.0 + 12.0 * i, 1, 2.0)
    spec = _spec(
        crashes=crashes,
        config=ProtocolConfig(
            checkpoint_interval=8.0, flush_interval=2.5,
            compact_history=True, gossip_interval=6.0,
        ),
        horizon=130.0,
    )
    result = run_experiment(spec)
    assert result.total("history_compacted") > 0
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations
    for protocol in result.protocols:
        # 4 failures of p1: the uncompacted bound would be n + f = 8.
        assert protocol.history.size() <= 2 * 4


def test_gossiped_frontiers_drive_compaction_without_a_coordinator():
    # Decentralised stability: every process broadcasts its flushed
    # frontier and runs apply_stability locally once it holds a report
    # from everyone -- no object sees all the processes at once.
    spec = _spec(
        crashes=CrashPlan().crash(20.0, 1, 2.0).crash(45.0, 1, 2.0),
        config=ProtocolConfig(
            checkpoint_interval=8.0, flush_interval=2.5,
            compact_history=True, gossip_interval=5.0,
        ),
    )
    result = run_experiment(spec)
    assert result.network.sent_count["frontier"] > 0
    assert result.total("history_compacted") > 0
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations
