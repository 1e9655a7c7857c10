#!/usr/bin/env python3
"""Walk through the paper's Figure 1 and Figure 5, live.

Both figures are reconstructed by driving the real protocol stack with
scripted messages and latencies; every FTVC box printed in Figure 1 is
checked against the protocol's actual clocks, and Figure 5's three
behaviours (postponement, obsolete discard, orphan rollback) are shown as
they happen in the trace.

Run:  python examples/paper_figures.py
"""

from repro.analysis import check_recovery
from repro.harness.scenarios import figure1, figure5
from repro.runtime.trace import EventKind

INTERESTING = (
    EventKind.SEND,
    EventKind.DELIVER,
    EventKind.DISCARD,
    EventKind.POSTPONE,
    EventKind.CRASH,
    EventKind.RESTORE,
    EventKind.TOKEN_SEND,
    EventKind.TOKEN_DELIVER,
    EventKind.RESTART,
    EventKind.ROLLBACK,
)


def print_timeline(result, title: str) -> None:
    print(f"=== {title} ===")
    for event in result.trace:
        if event.kind in INTERESTING:
            fields = {
                k: v
                for k, v in event.fields.items()
                if k in ("msg_id", "reason", "awaiting", "version",
                         "timestamp", "origin", "replayed",
                         "failed_version", "new_version")
            }
            print(f"  t={event.time:6.2f}  P{event.pid}  "
                  f"{event.kind.value:<13} {fields}")
    print()


def main() -> None:
    result1 = figure1()
    print_timeline(result1, "Figure 1: the computation, failure and recovery")
    print("clock boxes from the paper, verified against the protocol:")
    for name in ("s11", "s12", "s22", "r10", "r20", "p1_after_m0"):
        print(f"  {name:<12} = {result1.notes[name]}")
    assert result1.protocols[1].clock.pairs() == result1.notes["p1_after_m0"]
    assert result1.protocols[2].clock.pairs() == result1.notes["r20"]
    assert check_recovery(result1).ok
    print("figure 1 verified\n")

    result5 = figure5()
    print_timeline(result5, "Figure 5: postponement, obsolete discard, "
                            "orphan rollback")
    postpones = result5.trace.events(EventKind.POSTPONE, pid=0)
    discards = result5.trace.events(EventKind.DISCARD, pid=2)
    rollbacks = result5.trace.events(EventKind.ROLLBACK, pid=0)
    print(f"m2 postponed by P0 awaiting token {postpones[0]['awaiting']}; "
          f"delivered after the token arrived")
    print(f"m0 discarded by P2 as {discards[0]['reason']}")
    print(f"P0 rolled back once (token from P{rollbacks[0]['origin']}, "
          f"version {rollbacks[0]['version']})")
    assert check_recovery(result5).ok
    print("figure 5 verified")


if __name__ == "__main__":
    main()
