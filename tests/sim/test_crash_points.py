"""Simulator crash-point injection: kill a process mid-transition.

Each armed ``"<kind>:<step>"`` point (see :mod:`repro.storage.intents`)
fires once, when that durable step would land, crashing the process with
the exact partial image the point names.  The startup crawler must heal
every such image, and the run must still satisfy the recovery oracles.
"""

import pytest

from repro.analysis import check_recovery
from repro.apps import PingPongApp, RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan, CrashPointEvent
from repro.runtime.trace import EventKind
from repro.storage.intents import HEAL_LOG_KEY, SIM_CRASH_POINTS


def run(
    *,
    crash_points,
    crashes=None,
    app=None,
    n=4,
    seed=0,
    horizon=110.0,
    gossip_interval=None,
    enable_gc=False,
):
    spec = ExperimentSpec(
        n=n,
        app=app or RandomRoutingApp(hops=40, seeds=(0, 1), initial_items=2),
        protocol=DamaniGargProcess,
        crashes=crashes,
        crash_points=tuple(crash_points),
        seed=seed,
        horizon=horizon,
        config=ProtocolConfig(
            checkpoint_interval=8.0,
            flush_interval=2.5,
            retransmit_on_token=True,
            commit_outputs=enable_gc,
            enable_gc=enable_gc,
            gossip_interval=gossip_interval,
        ),
    )
    return run_experiment(spec)


def fired_points(result, pid=None):
    return [
        e["point"]
        for e in result.trace.events(EventKind.CUSTOM, pid)
        if e.fields.get("what") == "crash_point"
    ]


def test_checkpoint_point_kills_the_initial_checkpoint_and_recovers():
    """``checkpoint:log_flushed`` armed from boot fires inside checkpoint
    0 (the very first checkpoint transition): the process dies with a
    flushed-but-uncheckpointed image, heals by aborting the intent, and
    reboots through the fresh-start path."""
    result = run(
        crash_points=[CrashPointEvent(1, "checkpoint:log_flushed", 2.0)]
    )
    assert fired_points(result, pid=1) == ["checkpoint:log_flushed"]
    assert result.trace.count(EventKind.CRASH, 1) == 1
    fresh = [
        e
        for e in result.trace.events(EventKind.CUSTOM, 1)
        if e.fields.get("what") == "fresh_start"
    ]
    assert len(fresh) == 1
    assert result.protocols[1].storage.intents_aborted >= 1
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations
    assert result.total_delivered > 30


def test_flush_point_kills_a_periodic_flush_and_recovers():
    result = run(crash_points=[CrashPointEvent(2, "flush:log_flushed", 2.0)])
    assert fired_points(result, pid=2) == ["flush:log_flushed"]
    assert result.trace.count(EventKind.CRASH, 2) == 1
    assert result.trace.count(EventKind.RESTART, 2) == 1
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations


def test_restart_point_kills_the_restart_path_itself():
    """An ordinary crash at t=15 brings pid 1 into ``on_restart``; the
    armed point kills it again between the token log and the restart
    checkpoint.  The second restart heals (abort: the token-log dedupe
    absorbs the relog) and completes."""
    result = run(
        crashes=CrashPlan().crash(15.0, 1, 2.0),
        crash_points=[CrashPointEvent(1, "restart:token_logged", 2.0)],
    )
    assert fired_points(result, pid=1) == ["restart:token_logged"]
    assert result.trace.count(EventKind.CRASH, 1) == 2
    assert result.protocols[1].stats.restarts >= 2
    # The healed token log holds exactly one token per (origin, version).
    assert result.protocols[1].storage.token_log_dedups >= 1
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations


@pytest.mark.parametrize(
    "point",
    [
        "rollback:log_flushed",
        "rollback:checkpoints_discarded",
        "rollback:log_truncated",
    ],
)
def test_rollback_points_heal_forward_and_preserve_entries(point):
    """Crash pid 0 so its token orphans pid 1; the armed point kills
    pid 1 mid-rollback.  The crawler must roll the rollback *forward*
    (the payload names the complete target state) and the run must
    still satisfy every oracle."""
    result = run(
        app=PingPongApp(rounds=60),
        n=2,
        crashes=CrashPlan().crash(15.0, 0, 2.0),
        crash_points=[CrashPointEvent(1, point, 2.0)],
        horizon=120.0,
    )
    assert fired_points(result, pid=1) == [point]
    storage = result.protocols[1].storage
    heal_log = storage.get(HEAL_LOG_KEY) or []
    assert [a["action"] for a in heal_log] == ["rolled_forward"]
    assert heal_log[0]["kind"] == "rollback"
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations


def test_compaction_point_kills_the_stability_sweep():
    """The GC block of ``apply_stability`` is a two-persist transition;
    the armed point kills the process between them and the sweep must
    carry on for every other process."""
    result = run(
        crash_points=[
            CrashPointEvent(1, "compaction:checkpoints_collected", 2.0)
        ],
        gossip_interval=5.0,
        enable_gc=True,
        horizon=140.0,
    )
    assert fired_points(result, pid=1) == ["compaction:checkpoints_collected"]
    storage = result.protocols[1].storage
    heal_log = storage.get(HEAL_LOG_KEY) or []
    assert [a["action"] for a in heal_log] == ["rolled_forward"]
    assert heal_log[0]["kind"] == "compaction"
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations
    # Other processes kept collecting after pid 1 died mid-sweep.
    for protocol in result.protocols:
        assert min(c.ckpt_id for c in protocol.storage.checkpoints) > 0


@pytest.mark.parametrize("point", SIM_CRASH_POINTS)
def test_every_sim_point_is_armable_and_harmless_when_unreached(point):
    """Arming any enumerated point never corrupts a run: whether or not
    the transition occurs, the oracles hold."""
    result = run(
        crashes=CrashPlan().crash(20.0, 1, 2.0),
        crash_points=[CrashPointEvent(1, point, 2.0)],
        gossip_interval=6.0,
        enable_gc=True,
        horizon=130.0,
    )
    assert fired_points(result, pid=1) in ([], [point])
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations


def test_crash_point_runs_are_deterministic():
    a = run(crash_points=[CrashPointEvent(1, "flush:log_flushed", 2.0)])
    b = run(crash_points=[CrashPointEvent(1, "flush:log_flushed", 2.0)])
    assert len(a.trace) == len(b.trace)
    assert [
        (e.time, e.kind, e.pid) for e in a.trace
    ] == [(e.time, e.kind, e.pid) for e in b.trace]
    assert a.total_delivered == b.total_delivered
