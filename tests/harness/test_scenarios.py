"""Tests that the scripted scenarios reproduce the paper's figures."""

from repro.analysis import check_recovery
from repro.analysis.causality import build_ground_truth
from repro.harness.scenarios import figure1, figure5
from repro.runtime.trace import EventKind


class TestFigure1:
    def test_all_clock_boxes_match_the_paper(self):
        result = figure1()
        p1, p2 = result.protocols[1], result.protocols[2]
        assert p1.clock.pairs() == result.notes["p1_after_m0"]
        assert p2.clock.pairs() == result.notes["r20"]
        # s11, s12, s22 clocks were recorded at state creation.
        recorded = set()
        for protocol in result.protocols:
            recorded.update(c.pairs() for c in protocol.clock_by_uid.values())
        for name in ("s11", "s12", "s22", "r10", "r20"):
            assert result.notes[name] in recorded, name

    def test_s12_is_lost_and_s22_is_orphan(self):
        result = figure1()
        gt = build_ground_truth(result.trace, 3)
        assert len(gt.lost) == 1            # s12 (m2 was never logged)
        assert len(gt.lost & {u for u in gt.states if u[0] == 1}) == 1
        orphans = gt.orphans()
        assert len(orphans) == 1            # s22
        assert next(iter(orphans))[0] == 2
        assert gt.rolled_back == orphans

    def test_p1_restarts_once_p2_rolls_back_once(self):
        result = figure1()
        assert result.protocols[1].stats.restarts == 1
        assert result.protocols[2].stats.rollbacks == 1
        assert result.protocols[0].stats.rollbacks == 0

    def test_verdict_clean(self):
        verdict = check_recovery(figure1())
        assert verdict.ok, verdict.violations

    def test_non_useful_states_break_clock_order(self):
        """The paper's note: r20.c < s22.c although r20 !-> s22."""
        from repro.core.ftvc import FaultTolerantVectorClock as FTVC

        result = figure1()
        r20 = FTVC.of(result.notes["r20"])
        s22 = FTVC.of(result.notes["s22"])
        assert r20 < s22


class TestFigure5:
    def test_m2_is_postponed_for_the_version0_token(self):
        result = figure5()
        postpones = result.trace.events(EventKind.POSTPONE, pid=0)
        assert len(postpones) == 1
        assert postpones[0]["awaiting"] == [(1, 0)]

    def test_m2_is_delivered_after_the_token(self):
        result = figure5()
        assert result.protocols[0].executor.state == ("m2",)

    def test_m0_is_discarded_as_obsolete(self):
        result = figure5()
        discards = result.trace.events(EventKind.DISCARD, pid=2)
        assert len(discards) == 1
        assert discards[0]["reason"] == "obsolete"
        assert result.protocols[2].executor.state == ()

    def test_p0_rolls_back_exactly_once(self):
        result = figure5()
        assert result.protocols[0].stats.rollbacks == 1
        rollback = result.trace.last(EventKind.ROLLBACK, pid=0)
        assert rollback is not None
        assert rollback["origin"] == 1 and rollback["version"] == 0

    def test_p1_keeps_x1_loses_x2(self):
        result = figure5()
        assert result.protocols[1].executor.state == ("x1", "x3")

    def test_verdict_clean(self):
        verdict = check_recovery(figure5())
        assert verdict.ok, verdict.violations

    def test_histories_after_recovery(self):
        from repro.core.history import RecordKind

        result = figure5()
        # Everyone holds the token record for P1 version 0.
        for protocol in result.protocols:
            record = protocol.history.record(1, 0)
            assert record is not None
            assert record.kind is RecordKind.TOKEN
