"""Tests for the experiment runner."""

import pytest

from repro.apps import PingPongApp, RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan, PartitionPlan
from repro.sim.network import DeliveryOrder, FixedLatency


def test_minimal_spec_runs():
    spec = ExperimentSpec(
        n=2, app=PingPongApp(rounds=10), protocol=DamaniGargProcess,
        horizon=50.0,
    )
    result = run_experiment(spec)
    assert result.total_delivered == 10
    assert result.sim.now >= 50.0


def test_drain_false_leaves_messages_in_flight():
    spec = ExperimentSpec(
        n=2, app=PingPongApp(rounds=1000), protocol=DamaniGargProcess,
        horizon=5.0, drain=False,
    )
    result = run_experiment(spec)
    assert result.sim.pending > 0


def test_result_totals_helpers():
    spec = ExperimentSpec(
        n=3, app=RandomRoutingApp(hops=20, seeds=(0,), initial_items=2),
        protocol=DamaniGargProcess, horizon=60.0,
    )
    result = run_experiment(spec)
    assert result.total("app_sent") == sum(
        s.app_sent for s in result.stats
    )
    assert result.total_delivered == result.total("app_delivered")
    assert result.max_rollbacks_for_single_failure() == 0


def test_latency_model_is_used():
    spec = ExperimentSpec(
        n=2, app=PingPongApp(rounds=3), protocol=DamaniGargProcess,
        horizon=50.0, latency=FixedLatency(5.0),
    )
    result = run_experiment(spec)
    # 1 bootstrap send + 2 replies at exactly 5 time units apart.
    delivers = result.trace.events()
    from repro.runtime.trace import EventKind

    times = [e.time for e in result.trace.events(EventKind.DELIVER)]
    assert times == [5.0, 10.0, 15.0]


def test_crash_and_partition_plans_both_install():
    spec = ExperimentSpec(
        n=4, app=RandomRoutingApp(hops=30, seeds=(0, 2), initial_items=2),
        protocol=DamaniGargProcess,
        crashes=CrashPlan().crash(20.0, 1, 2.0),
        partitions=PartitionPlan().partition(10.0, [[0, 1], [2, 3]], 30.0),
        horizon=80.0,
    )
    result = run_experiment(spec)
    from repro.runtime.trace import EventKind

    assert result.trace.count(EventKind.CRASH) == 1
    assert result.trace.count(EventKind.PARTITION) == 1
    assert result.trace.count(EventKind.HEAL) == 1


def test_gossip_interval_runs_stability_gossip():
    spec = ExperimentSpec(
        n=3, app=RandomRoutingApp(hops=20, seeds=(0,), initial_items=2),
        protocol=DamaniGargProcess, horizon=40.0,
        config=ProtocolConfig(gossip_interval=5.0),
    )
    result = run_experiment(spec)
    # Rounds at t = 5, 10, ..., 40 and one after the drain, each one
    # broadcast from every process to its two peers.
    assert result.network.sent_count["frontier"] == 9 * 3 * 2


def test_no_gossip_by_default():
    spec = ExperimentSpec(
        n=2, app=PingPongApp(rounds=4), protocol=DamaniGargProcess,
        horizon=30.0,
    )
    assert "frontier" not in run_experiment(spec).network.sent_count


def test_record_states_flag_populates_executors():
    spec = ExperimentSpec(
        n=2, app=PingPongApp(rounds=6), protocol=DamaniGargProcess,
        horizon=40.0, record_states=True,
    )
    result = run_experiment(spec)
    for protocol in result.protocols:
        assert len(protocol.executor.state_by_uid) >= 1


def test_identical_specs_identical_traces():
    def make():
        return ExperimentSpec(
            n=4, app=RandomRoutingApp(hops=30, seeds=(0, 1), initial_items=2),
            protocol=DamaniGargProcess,
            crashes=CrashPlan().crash(15.0, 2, 2.0),
            seed=9, horizon=60.0, order=DeliveryOrder.FIFO,
            config=ProtocolConfig(checkpoint_interval=7.0),
        )

    assert (
        run_experiment(make()).trace.signature()
        == run_experiment(make()).trace.signature()
    )
