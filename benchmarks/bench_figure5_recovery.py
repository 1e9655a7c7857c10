"""Figure 5 -- the worked recovery example.

Reproduces the three behaviours the figure illustrates and the paper's
prose narrates: P0 postpones m2 until P1's version-0 token arrives, P0
detects it is an orphan and rolls back to its checkpoint, and P2 discards
the obsolete m0 outright (having already seen the token).
"""

from repro.analysis import check_recovery
from repro.core.history import RecordKind
from repro.harness.scenarios import figure5
from repro.runtime.trace import EventKind


def test_bench_figure5_scenario(benchmark):
    result = benchmark(figure5)

    # m2 postponed for the version-0 token, then delivered.
    postpones = result.trace.events(EventKind.POSTPONE, pid=0)
    assert len(postpones) == 1
    assert postpones[0]["awaiting"] == [(1, 0)]
    assert result.protocols[0].executor.state == ("m2",)

    # m0 discarded as obsolete by P2.
    discards = result.trace.events(EventKind.DISCARD, pid=2)
    assert [e["reason"] for e in discards] == ["obsolete"]
    assert result.protocols[2].executor.state == ()

    # P0 rolled back exactly once, due to P1's version-0 token.
    rollbacks = result.trace.events(EventKind.ROLLBACK, pid=0)
    assert len(rollbacks) == 1
    assert rollbacks[0]["origin"] == 1 and rollbacks[0]["version"] == 0

    # Delivery order around the token matches the figure: postpone happens
    # before the token, delivery of m2 after the rollback.
    token = result.trace.last(EventKind.TOKEN_DELIVER, pid=0)
    m2_delivery = result.trace.last(EventKind.DELIVER, pid=0)
    assert postpones[0].seq < token.seq < m2_delivery.seq

    # Histories: everyone ends with the token record for P1 version 0.
    for protocol in result.protocols:
        record = protocol.history.record(1, 0)
        assert record is not None and record.kind is RecordKind.TOKEN

    assert check_recovery(result).ok
    benchmark.extra_info["postponed"] = len(postpones)
    benchmark.extra_info["discarded"] = len(discards)


def test_bench_figure5_history_operations(benchmark):
    """Micro-benchmark of the Figure 3 history operations at the paper's
    scale, mirroring the record mix Figure 5 displays."""
    from repro.core.ftvc import FaultTolerantVectorClock as FTVC
    from repro.core.history import History
    from repro.core.tokens import RecoveryToken

    clocks = [
        FTVC.of([(0, i), (0, i + 1), (0, max(0, i - 1))]) for i in range(50)
    ]
    token = RecoveryToken(1, 0, 25)

    def history_walk():
        history = History(0, 3)
        for clock in clocks[:25]:
            if not history.is_obsolete(clock):
                history.observe_message_clock(clock)
        history.observe_token(token)
        obsolete = sum(
            1 for clock in clocks[25:] if history.is_obsolete(clock)
        )
        return history, obsolete

    history, obsolete = benchmark(history_walk)
    assert history.has_token(1, 0)
    assert obsolete > 0
