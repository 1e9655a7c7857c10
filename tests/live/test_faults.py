"""Live fault injection: plan vocabulary, injector units, cluster runs.

The expensive end-to-end tests each run one real 3-process TCP cluster
under a different fault class -- partition+heal, asymmetric drop, gray
link, disk fault -- and grade the merged trace with the *unchanged*
closed-form oracles.  The differential test locks the live failure model
to the simulator's: the same heal-before-drain partition schedule runs
on both engines and both must pass the same oracle function.
"""

import json

import pytest

from repro.live.faults import (
    LiveCorruptFramePlan,
    LiveDiskFaultPlan,
    LiveFaultPlan,
    LiveGrayLinkPlan,
    LiveLinkDropPlan,
    LivePartitionPlan,
    NodeFaults,
)
from repro.live.supervisor import LiveClusterSpec, run_cluster
from repro.live.verify import check_live_run

PARTITION_AT, PARTITION_HEAL = 0.5, 1.4


def _full_plan() -> LiveFaultPlan:
    return LiveFaultPlan(
        partitions=(
            LivePartitionPlan(at=0.5, groups=((0,), (1, 2)), heal_at=1.5),
        ),
        drops=(LiveLinkDropPlan(0, 1, 0.2, 0.9),),
        gray_links=(
            LiveGrayLinkPlan(
                1, 2, 0.0, 2.0, delay=0.01, jitter=0.005, bandwidth=1e6
            ),
        ),
        disk_faults=(LiveDiskFaultPlan(2, 0.5, 1.0, mode="fail"),),
        corrupt_frames=(
            LiveCorruptFramePlan(0, 2, 0.0, 1.0, rate=0.5, seed=7,
                                 mode="mixed"),
        ),
    )


# ---------------------------------------------------------------------------
# Plan vocabulary: JSON round-trip, validation, per-node compilation
# ---------------------------------------------------------------------------
def test_fault_plan_round_trips_through_json():
    plan = _full_plan()
    data = json.loads(json.dumps(plan.to_dict()))
    assert LiveFaultPlan.from_dict(data) == plan


def test_fault_plan_validate_rejects_out_of_range_pids():
    plan = _full_plan()
    plan.validate(3)
    with pytest.raises(ValueError, match="outside"):
        plan.validate(2)


def test_bad_windows_are_rejected_at_construction():
    with pytest.raises(ValueError):
        LivePartitionPlan(at=1.0, groups=((0,), (1,)), heal_at=0.5)
    with pytest.raises(ValueError):
        LivePartitionPlan(at=0.0, groups=((0, 1), (1, 2)), heal_at=1.0)
    with pytest.raises(ValueError):
        LiveLinkDropPlan(0, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        LiveDiskFaultPlan(0, 0.0, 1.0, mode="explode")
    with pytest.raises(ValueError):
        LiveCorruptFramePlan(0, 1, 0.0, 1.0, rate=1.5)


def test_partition_compiles_to_cross_group_blocks_only():
    plan = LiveFaultPlan(
        partitions=(
            LivePartitionPlan(at=0.5, groups=((0,), (1, 2)), heal_at=1.5),
        ),
    )
    cfg0 = plan.for_node(0, 3)
    cfg1 = plan.for_node(1, 3)
    blocked0 = {dst for dst, _, _ in cfg0["blocked"]}
    blocked1 = {dst for dst, _, _ in cfg1["blocked"]}
    assert blocked0 == {1, 2}       # p0 is alone: cut off from both
    assert blocked1 == {0}          # p1 keeps its intra-group link to p2


def test_one_way_drop_compiles_asymmetrically():
    plan = LiveFaultPlan(drops=(LiveLinkDropPlan(0, 1, 0.2, 0.9),))
    assert plan.for_node(0, 3)["blocked"] == [[1, 0.2, 0.9]]
    assert plan.for_node(1, 3)["blocked"] == []   # reverse link untouched


# ---------------------------------------------------------------------------
# NodeFaults: the node-side injector
# ---------------------------------------------------------------------------
def test_node_faults_inactive_before_clock_is_set():
    faults = NodeFaults(0, _full_plan().for_node(0, 3))
    assert not faults.send_blocked(1)
    framed = b"\x00" * 64
    assert faults.corrupt_frame(2, framed) == framed
    assert faults.gray_penalty(1, 1000) == 0.0


def test_node_faults_block_window_opens_and_heals():
    faults = NodeFaults(1, _full_plan().for_node(1, 3))
    clock = [0.0]
    faults.set_clock(lambda: clock[0])
    assert not faults.send_blocked(0)     # before the partition
    clock[0] = 1.0
    assert faults.send_blocked(0)         # inside [0.5, 1.5)
    assert not faults.send_blocked(2)     # intra-group link stays up
    clock[0] = 1.6
    assert not faults.send_blocked(0)     # healed
    assert faults.counters()["sends_blocked"] == 1


def test_corruption_is_seeded_and_actually_corrupts():
    cfg = LiveFaultPlan(
        corrupt_frames=(
            LiveCorruptFramePlan(0, 2, 0.0, 10.0, rate=1.0, seed=7,
                                 mode="bitflip"),
        ),
    ).for_node(0, 3)
    framed = bytes(range(64))
    a = NodeFaults(0, cfg)
    a.set_clock(lambda: 1.0)
    b = NodeFaults(0, cfg)
    b.set_clock(lambda: 1.0)
    out_a = [a.corrupt_frame(2, framed) for _ in range(5)]
    out_b = [b.corrupt_frame(2, framed) for _ in range(5)]
    assert out_a == out_b                 # same seed -> same corruption
    assert all(o != framed for o in out_a)
    assert all(len(o) == len(framed) for o in out_a)   # bitflip keeps size


def test_truncate_mode_returns_a_strict_prefix():
    cfg = LiveFaultPlan(
        corrupt_frames=(
            LiveCorruptFramePlan(0, 1, 0.0, 10.0, rate=1.0, seed=3,
                                 mode="truncate"),
        ),
    ).for_node(0, 3)
    faults = NodeFaults(0, cfg)
    faults.set_clock(lambda: 1.0)
    framed = bytes(range(64))
    out = faults.corrupt_frame(1, framed)
    assert len(out) < len(framed)
    assert framed.startswith(out)


def test_gray_penalty_includes_delay_jitter_and_bandwidth():
    cfg = LiveFaultPlan(
        gray_links=(
            LiveGrayLinkPlan(1, 2, 0.0, 10.0, delay=0.02, jitter=0.01,
                             bandwidth=1000.0),
        ),
    ).for_node(1, 3)
    faults = NodeFaults(1, cfg)
    faults.set_clock(lambda: 1.0)
    penalty = faults.gray_penalty(2, 500)
    # delay + [0, jitter] + 500 bytes / 1000 B/s
    assert 0.02 + 0.5 <= penalty <= 0.02 + 0.01 + 0.5
    assert faults.gray_penalty(0, 500) == 0.0   # other links unaffected


def test_disk_fault_fail_hits_window_persists_only():
    cfg = LiveFaultPlan(
        disk_faults=(LiveDiskFaultPlan(2, 0.5, 1.0, mode="fail"),),
    ).for_node(2, 3)
    faults = NodeFaults(2, cfg)
    faults.set_clock(lambda: 0.7)
    with pytest.raises(OSError, match="injected"):
        faults.disk_fault(window=True)
    faults.disk_fault(window=False)       # sync barriers pass through
    faults.set_clock(lambda: 1.2)
    faults.disk_fault(window=True)        # window closed
    assert faults.counters()["disk_fault_failures"] == 1


# ---------------------------------------------------------------------------
# Differential engine conformance: same partition plan, both engines
# ---------------------------------------------------------------------------
def _sim_partition_trace(n: int, jobs: int):
    from repro.apps.applications import PipelineApp
    from repro.core.recovery import DamaniGargProcess
    from repro.harness.runner import ExperimentSpec, run_experiment
    from repro.protocols.base import ProtocolConfig
    from repro.sim.failures import PartitionPlan

    partitions = PartitionPlan()
    partitions.partition(
        PARTITION_AT, ((0,), tuple(range(1, n))), PARTITION_HEAL
    )
    result = run_experiment(
        ExperimentSpec(
            n=n,
            app=PipelineApp(jobs=jobs),
            protocol=DamaniGargProcess,
            seed=7,
            horizon=30.0,
            partitions=partitions,
            config=ProtocolConfig(
                checkpoint_interval=0.5,
                flush_interval=0.15,
                retransmit_on_token=True,
            ),
        )
    )
    return result.trace


def test_same_partition_plan_passes_oracles_on_both_engines(tmp_path):
    """Heal-before-drain partition, pipeline app, both engines, one
    oracle function: the live failure model and the simulator's agree."""
    n, jobs = 3, 9

    sim_verdict = check_live_run(
        _sim_partition_trace(n, jobs), n=n, jobs=jobs
    )
    assert sim_verdict.ok, f"simulator: {sim_verdict.summary()}"
    assert sim_verdict.outputs_committed == jobs

    spec = LiveClusterSpec(
        n=n,
        jobs=jobs,
        run_seconds=4.0,
        linger=1.2,
        faults=LiveFaultPlan(
            partitions=(
                LivePartitionPlan(
                    at=PARTITION_AT,
                    groups=((0,), tuple(range(1, n))),
                    heal_at=PARTITION_HEAL,
                ),
            ),
        ),
    )
    result = run_cluster(spec, str(tmp_path))
    live_verdict = check_live_run(result.trace, n=n, jobs=jobs)
    assert live_verdict.ok, f"live: {live_verdict.summary()}"
    assert live_verdict.outputs_committed == jobs
    assert set(result.exit_codes.values()) == {0}, result.exit_codes

    # The partition was actually enforced, not a no-op: senders recorded
    # blocked transmissions on the cut links.
    blocked = sum(
        d["faults"]["sends_blocked"] for d in result.done.values()
    )
    assert blocked > 0, "partition never blocked a send"


# ---------------------------------------------------------------------------
# Live cluster under each remaining fault class
# ---------------------------------------------------------------------------
def test_asymmetric_drop_heals_and_oracles_hold(tmp_path):
    """One-way black-hole p0->p1: the reverse direction keeps flowing,
    the outbox retransmits after the heal, the pipeline completes."""
    spec = LiveClusterSpec(
        n=3,
        jobs=9,
        run_seconds=4.0,
        linger=1.2,
        faults=LiveFaultPlan(
            drops=(LiveLinkDropPlan(0, 1, 0.2, 1.2),),
        ),
    )
    result = run_cluster(spec, str(tmp_path))
    verdict = check_live_run(result.trace, n=3, jobs=9)
    assert verdict.ok, verdict.summary()
    assert set(result.exit_codes.values()) == {0}, result.exit_codes
    assert result.done[0]["faults"]["sends_blocked"] > 0
    # Asymmetry: only the src side of the directed link ever blocked.
    assert result.done[1]["faults"]["sends_blocked"] == 0


def test_gray_link_delays_but_oracles_hold(tmp_path):
    spec = LiveClusterSpec(
        n=3,
        jobs=9,
        run_seconds=4.0,
        linger=1.2,
        faults=LiveFaultPlan(
            gray_links=(
                LiveGrayLinkPlan(0, 1, 0.0, 2.0, delay=0.02, jitter=0.01,
                                 bandwidth=250_000.0),
            ),
        ),
    )
    result = run_cluster(spec, str(tmp_path))
    verdict = check_live_run(result.trace, n=3, jobs=9)
    assert verdict.ok, verdict.summary()
    assert result.done[0]["faults"]["gray_delays"] > 0


def test_failing_fsync_under_live_load_keeps_oracles_green(tmp_path):
    """Window flushes on p0 fail for the first 1.5s; the PR 7 retry path
    must carry the outbox through, and the run must stay oracle-clean."""
    spec = LiveClusterSpec(
        n=3,
        jobs=12,
        run_seconds=4.0,
        linger=1.2,
        faults=LiveFaultPlan(
            disk_faults=(LiveDiskFaultPlan(0, 0.0, 1.5, mode="fail"),),
        ),
    )
    result = run_cluster(spec, str(tmp_path))
    verdict = check_live_run(result.trace, n=3, jobs=12)
    assert verdict.ok, verdict.summary()
    assert set(result.exit_codes.values()) == {0}, result.exit_codes


# ---------------------------------------------------------------------------
# Stress integration: generation, reproducers, shrinking
# ---------------------------------------------------------------------------
def test_live_case_generation_is_deterministic_and_bounded():
    from repro.stress.live import generate_live_case

    for seed in range(12):
        case = generate_live_case(seed)
        assert case == generate_live_case(seed)
        case.faults.validate(case.n)
        assert case.n == 3
        assert 6 <= case.jobs <= 12
        assert len(case.crashes) <= 1
        # Every fault window closes before the drain margin.
        for p in case.faults.partitions:
            assert p.heal_at <= case.run_seconds - 2.0 + 1e-9
        for d in case.faults.drops:
            assert d.until <= case.run_seconds - 2.0 + 1e-9


@pytest.mark.parametrize("run_seconds", [2.0, 3.0])
def test_short_seeded_fault_plans_are_valid_for_every_seed(run_seconds):
    # At 3 s or less the windows are clamped to close at 1.0 s, where a
    # partition or drop drawn to open has no room (seeds 748, 1531, ...
    # once raised "bad partition window").
    from repro.stress import seeded_fault_plan

    for seed in range(20_000):
        plan = seeded_fault_plan(seed, n=3, run_seconds=run_seconds)
        plan.validate(3)
        for p in plan.partitions:
            assert p.at < p.heal_at <= 1.0
        for d in plan.drops:
            assert d.at < d.until <= 1.0


def test_live_reproducer_round_trips_and_replays_shrunk(tmp_path):
    from repro.stress.live import (
        LiveCaseResult,
        dump_live_reproducer,
        generate_live_case,
        load_live_reproducer,
    )

    case = generate_live_case(2)
    shrunk = generate_live_case(3)
    path = dump_live_reproducer(
        LiveCaseResult(
            case=case, violations=("boom",), shrunk=shrunk
        ),
        tmp_path,
    )
    payload = json.loads(path.read_text())
    assert payload["live"] is True      # the --replay dispatch marker
    loaded, full = load_live_reproducer(path)
    assert loaded == shrunk             # shrunk case is what replays
    assert full["violations"] == ["boom"]


def test_shrink_live_case_minimises_to_the_culprit_event():
    """ddmin over a live schedule with a synthetic predicate: the shrunk
    case keeps exactly the fault the predicate needs."""
    from dataclasses import replace

    from repro.stress.live import LiveStressCase, shrink_live_case

    case = LiveStressCase(
        seed=0,
        n=3,
        jobs=9,
        run_seconds=5.0,
        linger=1.2,
        crashes=((0.8, 1, 0.6), (1.5, 2, 0.6)),
        faults=_full_plan(),
    )

    def fails(candidate: LiveStressCase) -> bool:
        # The "bug" needs the disk fault and nothing else.
        return bool(candidate.faults.disk_faults)

    shrunk = shrink_live_case(case, fails, max_attempts=40)
    assert shrunk.faults.disk_faults == case.faults.disk_faults
    assert shrunk.crashes == ()
    assert shrunk.faults.partitions == ()
    assert shrunk.faults.drops == ()
    assert shrunk.faults.gray_links == ()
    assert shrunk.faults.corrupt_frames == ()
    # The result is itself a valid, runnable schedule.
    shrunk.faults.validate(shrunk.n)
    assert replace(shrunk, faults=shrunk.faults) == shrunk
