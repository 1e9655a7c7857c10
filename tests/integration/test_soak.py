"""Soak tests: long horizons, many failures, every oracle check on.

These are the heaviest tests in the suite (a few seconds each); they are
the closest thing to letting the system run overnight.
"""

import pytest

from repro.analysis import check_recovery, check_theorem1
from repro.apps import BankApp, RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols import (
    PessimisticReceiverProcess,
    ProtocolConfig,
    SenderBasedProcess,
    SmithJohnsonTygarProcess,
)
from repro.sim.failures import CrashPlan, PartitionPlan
from repro.sim.rng import RandomStreams


def test_soak_damani_garg_poisson_failures():
    """n=6, 200 time units, Poisson crashes, full oracle + Theorem 1."""
    crashes = CrashPlan.poisson(
        n=6, horizon=160.0, rate=0.012, downtime=2.0,
        streams=RandomStreams(4242),
    )
    assert crashes.failure_count >= 5, "want a busy schedule"
    spec = ExperimentSpec(
        n=6,
        app=RandomRoutingApp(hops=120, seeds=(0, 1, 2), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=crashes,
        seed=4242,
        horizon=200.0,
        config=ProtocolConfig(checkpoint_interval=7.0, flush_interval=2.0),
    )
    result = run_experiment(spec)
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations
    report = check_theorem1(result, max_states=350)
    assert report.ok, report.violations
    assert result.total_restarts == sum(
        1 for _ in crashes.events
    ) or result.total_restarts <= crashes.failure_count


def test_soak_with_everything_enabled():
    """Retransmission + output commit + GC + partitions, simultaneously."""
    crashes = CrashPlan.poisson(
        n=5, horizon=120.0, rate=0.012, downtime=2.0,
        streams=RandomStreams(77),
    )
    spec = ExperimentSpec(
        n=5,
        app=RandomRoutingApp(hops=100, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=crashes,
        partitions=PartitionPlan().partition(
            30.0, [[0, 1, 2], [3, 4]], heal_time=55.0
        ),
        seed=77,
        horizon=160.0,
        config=ProtocolConfig(
            checkpoint_interval=7.0,
            flush_interval=2.0,
            retransmit_on_token=True,
            commit_outputs=True,
            enable_gc=True,
            gossip_interval=4.0,
        ),
    )
    result = run_experiment(spec)
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations
    # More than ten gossip rounds, each from up to five processes to
    # their four peers.
    assert result.network.sent_count["frontier"] > 10 * 5 * 4


@pytest.mark.parametrize(
    "protocol",
    [SmithJohnsonTygarProcess, SenderBasedProcess,
     PessimisticReceiverProcess],
    ids=lambda p: p.name,
)
def test_soak_other_n_failure_protocols(protocol):
    crashes = CrashPlan.poisson(
        n=4, horizon=100.0, rate=0.01, downtime=2.0,
        streams=RandomStreams(99),
    )
    spec = ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=80, seeds=(0, 1), initial_items=3),
        protocol=protocol,
        crashes=crashes,
        seed=99,
        horizon=140.0,
        config=ProtocolConfig(checkpoint_interval=8.0, flush_interval=2.5),
    )
    result = run_experiment(spec)
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations


def test_soak_bank_invariant_under_fire():
    """Money is never created, across 10 seeds of double crashes."""
    n, initial = 5, 1000
    for seed in range(10):
        spec = ExperimentSpec(
            n=n,
            app=BankApp(initial_balance=initial, seeds=(0, 2),
                        max_chain=300),
            protocol=DamaniGargProcess,
            crashes=CrashPlan().crash(20.0, seed % n, 2.0).crash(
                45.0, (seed + 2) % n, 2.0
            ),
            seed=seed,
            horizon=120.0,
            config=ProtocolConfig(
                checkpoint_interval=8.0,
                flush_interval=2.5,
                retransmit_on_token=True,
            ),
        )
        result = run_experiment(spec)
        assert check_recovery(result).ok
        total = sum(p.executor.state.balance for p in result.protocols)
        assert total <= n * initial, f"money created (seed {seed})"
