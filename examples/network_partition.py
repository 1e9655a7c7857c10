#!/usr/bin/env python3
"""Recovering through a network partition.

The paper's asynchrony claim includes partition tolerance: "A process
should not depend upon information stored in other processes to recover.
It should be able to restart despite network partitioning."

Here the network splits into {P0, P1} | {P2, P3}; P1 crashes *inside* the
partition and restarts immediately -- no token delivery, no peer contact.
Its recovery token to P2/P3 is held by the network until the partition
heals, at which point the other side learns of the failure and rolls back
whatever the failure orphaned.  The oracle verifies the final state.

For contrast, the same scenario is run under the sender-based protocol,
whose recovery must *wait* for the partition to heal before it can collect
its logged messages -- measured as recovery blocking time.

Run:  python examples/network_partition.py
"""

from repro import (
    CrashPlan,
    DamaniGargProcess,
    ExperimentSpec,
    PartitionPlan,
    ProtocolConfig,
    run_experiment,
)
from repro.analysis import check_recovery
from repro.apps import RandomRoutingApp
from repro.protocols import SenderBasedProcess
from repro.runtime.trace import EventKind

PARTITION_START, CRASH_AT, HEAL_AT = 18.0, 25.0, 50.0


def run(protocol):
    spec = ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=60, seeds=(0, 2), initial_items=3),
        protocol=protocol,
        crashes=CrashPlan().crash(CRASH_AT, 1, downtime=2.0),
        partitions=PartitionPlan().partition(
            PARTITION_START, [[0, 1], [2, 3]], heal_time=HEAL_AT
        ),
        horizon=110.0,
        seed=4,
        config=ProtocolConfig(checkpoint_interval=8.0, flush_interval=2.5),
    )
    return run_experiment(spec)


def main() -> None:
    print(f"partition [[0,1],[2,3]] from t={PARTITION_START} to t={HEAL_AT}; "
          f"P1 crashes at t={CRASH_AT} (inside the partition)\n")

    result = run(DamaniGargProcess)
    restart = result.trace.last(EventKind.RESTART, pid=1)
    assert restart is not None
    print("--- Damani-Garg (asynchronous) ---")
    print(f"P1 restarted at t={restart.time:.2f} "
          f"(crash + downtime = {CRASH_AT + 2.0}; no waiting)")
    deliveries_during_partition = [
        e for e in result.trace.events(EventKind.TOKEN_DELIVER)
        if e.pid in (2, 3)
    ]
    first_far_side = min(e.time for e in deliveries_during_partition)
    print(f"P2/P3 learned of the failure at t={first_far_side:.2f} "
          f"(after the heal at t={HEAL_AT})")
    rollbacks = result.trace.events(EventKind.ROLLBACK)
    print(f"rollbacks after healing: "
          f"{[(e.pid, round(e.time, 2)) for e in rollbacks]}")
    verdict = check_recovery(result)
    print(f"oracle verdict: {'OK' if verdict.ok else verdict.violations}")
    assert verdict.ok
    assert restart.time == CRASH_AT + 2.0
    assert first_far_side >= HEAL_AT

    print("\n--- sender-based logging (needs its peers) ---")
    result_jz = run(SenderBasedProcess)
    failed = result_jz.protocols[1]
    restart_jz = result_jz.trace.last(EventKind.RESTART, pid=1)
    print(f"P1's recovery completed at "
          f"t={restart_jz.time if restart_jz else float('nan'):.2f} "
          f"-- it had to wait for RETRIEVE responses from across the "
          f"partition (heal at t={HEAL_AT})")
    verdict_jz = check_recovery(result_jz)
    assert verdict_jz.ok
    assert restart_jz is not None and restart_jz.time >= HEAL_AT

    print("\nnetwork_partition: all checks passed")


if __name__ == "__main__":
    main()
