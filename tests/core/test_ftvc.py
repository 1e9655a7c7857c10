"""Unit tests for the Fault-Tolerant Vector Clock (paper Fig. 2, Sec. 4)."""

import copyreg
import io
import pickle

import pytest

from repro.core.ftvc import (
    ClockEntry,
    FaultTolerantVectorClock as FTVC,
    _clock_from_flat,
)
from repro.storage.log import LogEntry


class TestClockEntry:
    def test_lexicographic_order(self):
        assert ClockEntry(0, 5) < ClockEntry(1, 0)      # version dominates
        assert ClockEntry(1, 0) < ClockEntry(1, 1)      # then timestamp
        assert not ClockEntry(1, 1) < ClockEntry(1, 1)
        assert max(ClockEntry(0, 9), ClockEntry(1, 0)) == ClockEntry(1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClockEntry(-1, 0)
        with pytest.raises(ValueError):
            ClockEntry(0, -1)

    def test_is_an_immutable_pair(self):
        entry = ClockEntry(1, 2)
        version, timestamp = entry
        assert (version, timestamp) == (entry.version, entry.timestamp)
        assert entry == (1, 2) and hash(entry) == hash((1, 2))
        assert ClockEntry() == (0, 0) and repr(entry) == "(1,2)"
        with pytest.raises(AttributeError):
            entry.version = 3
        with pytest.raises(AttributeError):
            entry.extra = 3                 # no per-instance dict

    def test_pickle_goes_through_the_validating_constructor(self):
        entry = pickle.loads(pickle.dumps(ClockEntry(2, 7), protocol=4))
        assert type(entry) is ClockEntry and entry == (2, 7)
        forged = pickle.dumps(ClockEntry(2, 7), protocol=0).replace(
            b"I7\n", b"I-7\n"
        )
        with pytest.raises(ValueError, match="negative clock entry"):
            pickle.loads(forged)

    def test_entry_pickled_by_an_earlier_commit_fails_loudly(self):
        """Before the entry was a tuple it was a slotted dataclass whose
        pickle restores fields through a state list.  Such a store must
        be refused, never folded to ``(0,0)`` entries."""

        class PreTupleEntry:
            def __reduce__(self):
                return ClockEntry, (), [2, 7]

        with pytest.raises(pickle.UnpicklingError):
            pickle.loads(pickle.dumps(PreTupleEntry(), protocol=4))


class _SlotStatePickler(pickle.Pickler):
    """Pickles a clock the way its slots did before it had a reduce:
    the class, then ``entries`` as state, one reduce per entry."""

    def reducer_override(self, obj):
        if type(obj) is FTVC:
            state = (None, {"entries": obj.entries})
            return copyreg.__newobj__, (FTVC,), state
        return NotImplemented


def _slot_state_pickle(value):
    sink = io.BytesIO()
    _SlotStatePickler(sink, protocol=4).dump(value)
    return sink.getvalue()


class TestPickle:
    def test_clock_round_trips_smaller_than_its_slot_state(self):
        clock = FTVC.of([(0, 7), (2, 31), (1, 0)])
        flat = pickle.dumps(clock, protocol=4)
        back = pickle.loads(flat)
        assert back == clock and type(back.entries[1]) is ClockEntry
        assert pickle.loads(_slot_state_pickle(clock)) == clock
        assert len(flat) < len(_slot_state_pickle(clock))

    def test_log_entry_with_two_clocks_shrinks(self):
        before = FTVC.of([(0, 3), (0, 9)])
        after = before.receive(FTVC.of([(0, 4), (0, 2)]), 1)
        meta = (before, (0, 7), (1, 0, 9), after)
        entry = LogEntry(7, 7, 0, ("job", 7), meta)
        assert len(pickle.dumps(entry, protocol=4)) < 0.8 * len(
            _slot_state_pickle(entry)
        )

    def test_negative_component_is_refused_at_load(self):
        data = pickle.dumps(FTVC.of([(0, 7), (2, 31)]), protocol=0)
        assert b"I31\n" in data
        with pytest.raises(ValueError, match="negative clock entry"):
            pickle.loads(data.replace(b"I31\n", b"I-31\n"))
        with pytest.raises(ValueError):
            _clock_from_flat(())
        with pytest.raises(ValueError, match="odd length"):
            _clock_from_flat((0, 7, 2))


class TestRules:
    def test_initialize(self):
        clock = FTVC.initial(1, 3)
        assert clock.pairs() == ((0, 0), (0, 1), (0, 0))

    def test_initial_pid_range(self):
        with pytest.raises(ValueError):
            FTVC.initial(3, 3)

    def test_tick_increments_own_timestamp_only(self):
        clock = FTVC.initial(0, 3).tick(0)
        assert clock.pairs() == ((0, 2), (0, 0), (0, 0))

    def test_merge_componentwise_lexicographic_max(self):
        a = FTVC.of([(0, 5), (1, 0), (0, 3)])
        b = FTVC.of([(0, 2), (0, 9), (0, 4)])
        merged = a.merge(b)
        # version 1 beats version 0 even with a bigger timestamp
        assert merged.pairs() == ((0, 5), (1, 0), (0, 4))

    def test_merge_length_mismatch(self):
        with pytest.raises(ValueError):
            FTVC.initial(0, 2).merge(FTVC.initial(0, 3))

    def test_restart_bumps_version_resets_timestamp(self):
        clock = FTVC.of([(0, 7), (0, 3)]).restart(0)
        assert clock.pairs() == ((1, 0), (0, 3))

    def test_restart_needs_only_version_not_timestamp(self):
        # Two clocks of the same version but different (possibly lost)
        # timestamps restart to the identical entry.
        a = FTVC.of([(2, 99), (0, 0)]).restart(0)
        b = FTVC.of([(2, 1), (0, 0)]).restart(0)
        assert a[0] == b[0] == ClockEntry(3, 0)

    def test_operations_do_not_mutate(self):
        clock = FTVC.initial(0, 2)
        clock.tick(0)
        clock.merge(FTVC.of([(0, 9), (0, 9)]))
        clock.restart(0)
        assert clock.pairs() == ((0, 1), (0, 0))


class TestOrder:
    def test_strict_order_definition(self):
        a = FTVC.of([(0, 1), (0, 0)])
        b = FTVC.of([(0, 1), (0, 1)])
        assert a < b and a <= b
        assert not b < a
        assert not a < a and a <= a

    def test_version_dominates_in_order(self):
        old = FTVC.of([(0, 100), (0, 0)])
        new = FTVC.of([(1, 0), (0, 0)])
        assert old < new

    def test_concurrency(self):
        a = FTVC.of([(0, 2), (0, 0)])
        b = FTVC.of([(0, 1), (0, 1)])
        assert a.concurrent_with(b)
        assert not a.concurrent_with(a)

    def test_equality_hash(self):
        assert FTVC.of([(0, 1)]) == FTVC.of([(0, 1)])
        assert hash(FTVC.of([(0, 1)])) == hash(FTVC.of([(0, 1)]))
        assert FTVC.of([(0, 1)]) != FTVC.of([(1, 1)])


class TestFigure1Values:
    """Replays Figure 1's clock evolution by hand and checks every box."""

    def test_figure1(self):
        n = 3
        p0 = FTVC.initial(0, n)           # (0,1)(0,0)(0,0)
        p1 = FTVC.initial(1, n)           # (0,0)(0,1)(0,0)
        p2 = FTVC.initial(2, n)           # (0,0)(0,0)(0,1)

        # P2 sends m0 to P1 (delivered only after P1's restart).
        m0_clock = p2
        p2 = p2.tick(2)                   # s21 = (0,0)(0,0)(0,2)
        assert p2.pairs() == ((0, 0), (0, 0), (0, 2))

        # P0 sends m1 then m2 to P1.
        m1_clock = p0
        p0 = p0.tick(0)                   # (0,2)(0,0)(0,0)
        m2_clock = p0
        p0 = p0.tick(0)                   # (0,3)(0,0)(0,0)
        assert p0.pairs() == ((0, 3), (0, 0), (0, 0))

        # P1 receives m1 -> s11, then m2 -> s12.
        p1 = p1.merge(m1_clock).tick(1)   # s11 = (0,1)(0,2)(0,0)
        s11 = p1
        assert s11.pairs() == ((0, 1), (0, 2), (0, 0))
        p1 = p1.merge(m2_clock).tick(1)   # s12 = (0,2)(0,3)(0,0)
        s12 = p1
        assert s12.pairs() == ((0, 2), (0, 3), (0, 0))

        # s12 sends m3 to P2.
        m3_clock = p1
        p1 = p1.tick(1)                   # (0,2)(0,4)(0,0)
        assert p1.pairs() == ((0, 2), (0, 4), (0, 0))

        # P2 receives m3 -> s22 (the orphan-to-be).
        s22 = p2.merge(m3_clock).tick(2)
        assert s22.pairs() == ((0, 2), (0, 3), (0, 3))

        # P1 fails, restores s11 (m2 was unlogged), restarts: r10.
        r10 = s11.restart(1)
        assert r10.pairs() == ((0, 1), (1, 0), (0, 0))

        # P2 learns of the failure, rolls back s22 to s21, recovery state r20.
        r20 = FTVC.of([(0, 0), (0, 0), (0, 2)]).tick(2)
        assert r20.pairs() == ((0, 0), (0, 0), (0, 3))

        # m0 finally reaches the restarted P1.
        p1_after_m0 = r10.merge(m0_clock).tick(1)
        assert p1_after_m0.pairs() == ((0, 1), (1, 1), (0, 1))

        # The paper's closing observation: FTVC does NOT order non-useful
        # states correctly -- r20.c < s22.c although r20 !-> s22.
        assert r20 < s22


class TestOverheadAccounting:
    def test_piggyback_entries_is_n(self):
        assert FTVC.initial(0, 7).piggyback_entries() == 7

    def test_wire_size_grows_with_log_f(self):
        base = FTVC.of([(0, 1), (0, 1)])
        failed_once = FTVC.of([(1, 1), (0, 1)])
        failed_lots = FTVC.of([(7, 1), (0, 1)])
        assert base.wire_size_bits() <= failed_once.wire_size_bits()
        assert failed_once.wire_size_bits() <= failed_lots.wire_size_bits()
        # 2 entries x (32 ts bits + 3 version bits for versions up to 7)
        assert failed_lots.wire_size_bits() == 2 * (32 + 3)


def test_empty_clock_rejected():
    with pytest.raises(ValueError):
        FTVC([])


def test_repr_is_compact():
    assert repr(FTVC.of([(0, 1), (1, 2)])) == "FTVC[(0,1) (1,2)]"


class TestDeltaEncoding:
    """diff/from_delta: the wire fast path's per-link clock compression."""

    def test_diff_roundtrip_single_tick(self):
        base = FTVC.of([(0, 1), (0, 2), (0, 3)])
        new = base.tick(1)
        changes = new.diff(base)
        assert changes == ((1, 0, 3),)
        assert FTVC.from_delta(base, changes) == new

    def test_diff_of_identical_clock_is_empty(self):
        clock = FTVC.of([(0, 1), (0, 2)])
        assert clock.diff(clock) == ()
        assert FTVC.from_delta(clock, ()) == clock

    def test_diff_covers_restart(self):
        base = FTVC.of([(0, 7), (0, 3)])
        new = base.restart(0)
        changes = new.diff(base)
        assert changes == ((0, 1, 0),)
        assert FTVC.from_delta(base, changes) == new

    def test_diff_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            FTVC.initial(0, 2).diff(FTVC.initial(0, 3))

    def test_delta_is_idempotent(self):
        # Absolute (index, version, timestamp) triples: re-applying a
        # delta to its own result is a no-op, which is what lets the
        # decoder process duplicate frames without desynchronising.
        base = FTVC.of([(0, 1), (0, 2)])
        new = base.tick(0)
        changes = new.diff(base)
        assert FTVC.from_delta(new, changes) == new

    def test_delta_bits_beat_full_bits_for_small_diffs(self):
        base = FTVC.initial(0, 8)
        new = base.tick(0)
        assert new.delta_wire_size_bits(base) < new.wire_size_bits()

    def test_exact_byte_costs_under_binary_codec(self):
        base = FTVC.of([(0, 1), (0, 2)])
        # Full: tag + count + 2 * (version varint + timestamp varint).
        assert base.wire_size_bytes() == 6
        # Delta with one change: tag + count + (idx, version, ts) varints.
        new = base.tick(1)
        assert new.delta_wire_size_bytes(base) == 5
