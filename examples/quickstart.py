#!/usr/bin/env python3
"""Quickstart: one failure, asynchronous recovery, verified against ground
truth.

Runs four processes exchanging hop-bounded work items under the Damani-Garg
protocol, crashes one of them mid-run, and shows what the recovery did:
which states were lost with the volatile log, which became orphans, and
that the protocol rolled back exactly the orphans and nothing else.

Run:  python examples/quickstart.py
"""

from repro import (
    CrashPlan,
    DamaniGargProcess,
    ExperimentSpec,
    ProtocolConfig,
    run_experiment,
)
from repro.analysis import check_recovery, check_theorem1, measure_overhead
from repro.apps import RandomRoutingApp
from repro.runtime.trace import EventKind


def main() -> None:
    spec = ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=50, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=CrashPlan().crash(time=20.0, pid=1, downtime=2.0),
        horizon=100.0,
        seed=7,
        config=ProtocolConfig(checkpoint_interval=8.0, flush_interval=2.5),
    )
    result = run_experiment(spec)

    print("=== run summary ===")
    print(f"messages delivered : {result.total_delivered}")
    print(f"restarts           : {result.total_restarts}")
    print(f"rollbacks          : {result.total_rollbacks}")
    print(f"obsolete discarded : {result.total('app_discarded')}")
    print(f"postponed          : {result.total('app_postponed')}")
    print(f"replayed from log  : {result.total('replayed')}")

    print("\n=== recovery timeline for the failed process (P1) ===")
    for event in result.trace.events(pid=1):
        if event.kind in (
            EventKind.CRASH,
            EventKind.RESTORE,
            EventKind.TOKEN_SEND,
            EventKind.RESTART,
        ):
            print(f"  t={event.time:6.2f}  {event.kind.value:<10} {event.fields}")

    verdict = check_recovery(result)
    gt = verdict.ground_truth
    print("\n=== ground truth ===")
    print(f"states created     : {len(gt.states)}")
    print(f"lost in the crash  : {len(gt.lost)}")
    print(f"orphaned           : {len(verdict.orphans)}")
    print(f"rolled back        : {len(gt.rolled_back)} "
          f"(must equal orphans for minimal rollback)")
    print(f"oracle verdict     : {'OK' if verdict.ok else verdict.violations}")

    theorem = check_theorem1(result)
    print(f"\nTheorem 1 (s->u iff s.clock<u.clock on useful states): "
          f"{'holds' if theorem.ok else 'VIOLATED'} "
          f"over {theorem.pairs_checked} pairs")

    overhead = measure_overhead(result)
    print(f"\npiggyback per message : "
          f"{overhead.piggyback_entries_per_message:.1f} clock entries (n=4)")
    print(f"control messages      : {overhead.control_messages} "
          f"({overhead.control_messages_per_failure:.0f} per failure = n-1)")

    assert verdict.ok and theorem.ok
    print("\nquickstart: all checks passed")


if __name__ == "__main__":
    main()
