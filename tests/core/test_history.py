"""Unit tests for the history mechanism (paper Fig. 3, Sec. 5)."""

import pytest

from repro.core.ftvc import FaultTolerantVectorClock as FTVC
from repro.core.history import History, HistoryRecord, RecordKind
from repro.core.tokens import RecoveryToken


def test_initialization_matches_figure3():
    history = History(pid=1, n=3)
    assert history.record(0, 0) == HistoryRecord(RecordKind.MESSAGE, 0, 0)
    assert history.record(1, 0) == HistoryRecord(RecordKind.MESSAGE, 0, 1)
    assert history.record(2, 0) == HistoryRecord(RecordKind.MESSAGE, 0, 0)
    assert history.size() == 3


def test_pid_out_of_range():
    with pytest.raises(ValueError):
        History(pid=3, n=3)


class TestMessageObservation:
    def test_raises_message_record_to_max(self):
        history = History(0, 2)
        history.observe_message_clock(FTVC.of([(0, 1), (0, 5)]))
        assert history.record(1, 0).timestamp == 5
        history.observe_message_clock(FTVC.of([(0, 1), (0, 3)]))
        assert history.record(1, 0).timestamp == 5      # never lowered
        history.observe_message_clock(FTVC.of([(0, 1), (0, 9)]))
        assert history.record(1, 0).timestamp == 9

    def test_one_record_per_version(self):
        history = History(0, 2)
        history.observe_message_clock(FTVC.of([(0, 1), (0, 5)]))
        history.observe_message_clock(FTVC.of([(0, 1), (1, 2)]))
        records = history.records_for(1)
        assert [(r.version, r.timestamp) for r in records] == [(0, 5), (1, 2)]
        assert history.size() == 3   # 1 own record + 2 versions of P1

    def test_token_record_never_overwritten_by_message(self):
        history = History(0, 2)
        history.observe_token(RecoveryToken(1, 0, 7))
        history.observe_message_clock(FTVC.of([(0, 1), (0, 6)]))
        rec = history.record(1, 0)
        assert rec.kind is RecordKind.TOKEN and rec.timestamp == 7

    def test_clock_length_checked(self):
        with pytest.raises(ValueError):
            History(0, 2).observe_message_clock(FTVC.of([(0, 1)]))

    @pytest.mark.parametrize("pairs", [[(0, 1)], [(0, 1), (0, 0), (1, 0)]])
    def test_malformed_clock_refused_before_any_decision(self, pairs):
        # A wrong-length clock must not be judged obsolete or parked as
        # awaiting tokens: both tests refuse it, like the observer.
        history = History(0, 2)
        with pytest.raises(ValueError):
            history.is_obsolete(FTVC.of(pairs))
        with pytest.raises(ValueError):
            history.missing_tokens(FTVC.of(pairs))


class TestTokenObservation:
    def test_token_replaces_message_record(self):
        history = History(0, 2)
        history.observe_message_clock(FTVC.of([(0, 1), (0, 9)]))
        history.observe_token(RecoveryToken(1, 0, 4))
        rec = history.record(1, 0)
        assert rec.kind is RecordKind.TOKEN and rec.timestamp == 4

    def test_has_token(self):
        history = History(0, 3)
        assert not history.has_token(1, 0)
        history.observe_token(RecoveryToken(1, 0, 4))
        assert history.has_token(1, 0)
        assert not history.has_token(1, 1)
        assert not history.has_token(2, 0)


class TestObsoleteTest:
    """Lemma 4: obsolete iff a token record is exceeded."""

    def test_message_above_restoration_point_is_obsolete(self):
        history = History(0, 2)
        history.observe_token(RecoveryToken(1, 0, 4))
        assert history.is_obsolete(FTVC.of([(0, 1), (0, 5)]))

    def test_message_at_restoration_point_is_not_obsolete(self):
        history = History(0, 2)
        history.observe_token(RecoveryToken(1, 0, 4))
        assert not history.is_obsolete(FTVC.of([(0, 1), (0, 4)]))

    def test_new_version_not_obsolete(self):
        history = History(0, 2)
        history.observe_token(RecoveryToken(1, 0, 4))
        assert not history.is_obsolete(FTVC.of([(0, 1), (1, 1)]))

    def test_without_token_nothing_is_obsolete(self):
        history = History(0, 2)
        history.observe_message_clock(FTVC.of([(0, 1), (0, 9)]))
        assert not history.is_obsolete(FTVC.of([(0, 2), (0, 99)]))


class TestDeliverability:
    def test_version_zero_always_deliverable(self):
        history = History(0, 2)
        assert history.missing_tokens(FTVC.of([(0, 5), (0, 3)])) == []

    def test_higher_version_requires_all_earlier_tokens(self):
        history = History(0, 2)
        clock = FTVC.of([(0, 1), (2, 1)])
        assert history.missing_tokens(clock) == [(1, 0), (1, 1)]
        history.observe_token(RecoveryToken(1, 0, 4))
        assert history.missing_tokens(clock) == [(1, 1)]
        history.observe_token(RecoveryToken(1, 1, 2))
        assert history.missing_tokens(clock) == []

    def test_tokens_may_arrive_out_of_order(self):
        history = History(0, 2)
        history.observe_token(RecoveryToken(1, 1, 2))
        clock = FTVC.of([(0, 1), (2, 1)])
        assert history.missing_tokens(clock) == [(1, 0)]


class TestOrphanTest:
    """Lemma 3: orphan iff a message record exceeds the token."""

    def test_orphan_when_dependent_beyond_restoration(self):
        history = History(0, 2)
        history.observe_message_clock(FTVC.of([(0, 1), (0, 9)]))
        assert history.orphaned_by(RecoveryToken(1, 0, 4))

    def test_not_orphan_at_restoration_point(self):
        history = History(0, 2)
        history.observe_message_clock(FTVC.of([(0, 1), (0, 4)]))
        assert not history.orphaned_by(RecoveryToken(1, 0, 4))

    def test_not_orphan_without_dependence_on_that_version(self):
        history = History(0, 2)
        assert not history.orphaned_by(RecoveryToken(1, 2, 0))

    def test_token_record_is_not_an_orphan_witness(self):
        history = History(0, 2)
        history.observe_token(RecoveryToken(1, 0, 9))
        assert not history.orphaned_by(RecoveryToken(1, 0, 4))


class TestSurvivesToken:
    """The rollback scan predicate (Fig. 4 step I, with <= per Lemma 3)."""

    def test_no_record_survives(self):
        history = History(0, 2)
        assert history.survives_token(RecoveryToken(1, 3, 0))

    def test_below_or_at_restoration_survives(self):
        history = History(0, 2)
        history.observe_message_clock(FTVC.of([(0, 1), (0, 4)]))
        assert history.survives_token(RecoveryToken(1, 0, 4))
        assert history.survives_token(RecoveryToken(1, 0, 5))
        assert not history.survives_token(RecoveryToken(1, 0, 3))

    def test_survives_iff_not_orphaned(self):
        history = History(0, 2)
        history.observe_message_clock(FTVC.of([(0, 1), (0, 7)]))
        for ts in range(10):
            token = RecoveryToken(1, 0, ts)
            assert history.survives_token(token) != history.orphaned_by(token)


class TestSnapshot:
    def test_snapshot_is_independent(self):
        history = History(0, 2)
        snap = history.snapshot()
        history.observe_message_clock(FTVC.of([(0, 1), (0, 9)]))
        assert snap.record(1, 0).timestamp == 0
        assert history.record(1, 0).timestamp == 9

    def test_size_is_O_nf(self):
        history = History(0, 4)
        for version in range(3):
            for j in range(1, 4):
                history.observe_token(RecoveryToken(j, version, version))
        # n=4 processes, max version 2 => at most 4 * 3 records
        assert history.size() <= 4 * 3


def test_repr_mentions_records():
    history = History(0, 2)
    history.observe_token(RecoveryToken(1, 0, 3))
    assert "(token,0,3)" in repr(history)


class TestCompaction:
    """compact(): drop records provably dead once newer tokens are held.

    The GC boundary the paper's O(n*f) claim needs: a record may only be
    dropped after its killing token was observed -- concretely, compact()
    touches nothing but contiguous runs of TOKEN records and always keeps
    the newest token of a run (the live restoration point for Lemma 4).
    """

    def _with_tokens(self, versions, n=2, j=1):
        history = History(0, n)
        for v in versions:
            history.observe_token(RecoveryToken(j, v, v + 10))
        return history

    def test_contiguous_token_run_compacts_to_newest(self):
        history = self._with_tokens([0, 1, 2])
        assert history.compact() == 2
        assert history.floor(1) == 2
        assert history.record(1, 0) is None
        assert history.record(1, 1) is None
        rec = history.record(1, 2)
        assert rec.kind is RecordKind.TOKEN and rec.timestamp == 12

    def test_message_record_blocks_the_run(self):
        # Version 1's killing token was never observed: its MESSAGE
        # record (and everything above it) must survive compaction.
        history = self._with_tokens([0])
        history.observe_message_clock(FTVC.of([(0, 1), (1, 5)]))
        assert history.compact() == 0
        assert history.floor(1) == 0
        assert history.record(1, 0).kind is RecordKind.TOKEN
        assert history.record(1, 1).kind is RecordKind.MESSAGE

    def test_no_tokens_nothing_compacts(self):
        history = History(0, 2)
        history.observe_message_clock(FTVC.of([(0, 1), (0, 9)]))
        assert history.compact() == 0
        assert history.size() == 2

    def test_compact_is_idempotent(self):
        history = self._with_tokens([0, 1, 2])
        history.compact()
        assert history.compact() == 0
        assert history.floor(1) == 2

    def test_below_floor_tokens_count_as_observed(self):
        history = self._with_tokens([0, 1, 2])
        history.compact()
        assert history.has_token(1, 0)
        assert history.has_token(1, 1)
        # Deliverability scan starts at the floor.
        assert history.missing_tokens(FTVC.of([(0, 1), (4, 0)])) == [(1, 3)]

    def test_below_floor_clock_entries_are_obsolete(self):
        # The exact Lemma 4 comparison is gone with the record; the only
        # safe answer for a straggler from a twice-dead incarnation is
        # "obsolete" (discard).
        history = self._with_tokens([0, 1, 2])
        history.compact()
        assert history.is_obsolete(FTVC.of([(0, 1), (0, 3)]))
        assert history.is_obsolete(FTVC.of([(0, 1), (1, 0)]))
        # The kept newest token still answers exactly.
        assert not history.is_obsolete(FTVC.of([(0, 1), (2, 12)]))
        assert history.is_obsolete(FTVC.of([(0, 1), (2, 13)]))

    def test_observations_below_floor_are_noops(self):
        history = self._with_tokens([0, 1, 2])
        history.compact()
        history.observe_message_clock(FTVC.of([(0, 1), (0, 99)]))
        history.observe_token(RecoveryToken(1, 1, 99))
        assert history.record(1, 0) is None
        assert history.record(1, 1) is None

    def test_snapshot_preserves_floor(self):
        history = self._with_tokens([0, 1])
        history.compact()
        snap = history.snapshot()
        assert snap.floor(1) == history.floor(1) == 1
        # Still independent copies.
        history.observe_token(RecoveryToken(1, 2, 0))
        assert snap.record(1, 2) is None

    def test_size_stays_O_n_under_repeated_failures(self):
        # Section 6.9: with compaction after every failure wave, the
        # table holds at most a constant number of records per process
        # instead of one per (process, version).
        history = History(0, 4)
        for version in range(50):
            for j in range(1, 4):
                history.observe_token(RecoveryToken(j, version, version))
            history.compact()
        assert history.size() <= 2 * 4
