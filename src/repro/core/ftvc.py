"""Fault-Tolerant Vector Clock (paper Section 4, Figure 2).

Each entry of the clock is a ``(version, timestamp)`` pair:

- the *version* in entry ``i`` of process ``i``'s clock counts how many
  times ``i`` has failed and recovered;
- entry ``j`` holds the highest version of ``P_j`` the owner causally
  depends on, with the largest timestamp seen within that version.

Entries are ordered lexicographically: ``e1 < e2`` iff ``v1 < v2`` or
(``v1 == v2`` and ``ts1 < ts2``).  The clock rules (Figure 2):

- **initialize** -- every entry ``(0, 0)``, own entry ``(0, 1)``;
- **send** -- attach the current clock, then increment the own timestamp;
- **receive** -- component-wise maximum with the message's clock, then
  increment the own timestamp;
- **restart** (after a failure) -- increment the own *version*, reset the
  own timestamp to 0 (requires no lost state: only the version number,
  which is preserved via the post-restart checkpoint);
- **rollback** -- increment the own timestamp, leave the version alone.

Theorem 1: for *useful* states (neither lost nor orphan),
``s -> u  iff  s.clock < u.clock``.
"""

from __future__ import annotations

from itertools import chain, compress, starmap
from operator import gt, itemgetter, le, ne
from typing import Iterable, Sequence

# Entries and clocks derived from valid ones skip the validating constructors.
_new_entry = tuple.__new__
_new_clock = object.__new__


class ClockEntry(tuple):
    """One ``(version, timestamp)`` component.

    A tuple subclass, so the paper's lexicographic order *is* the
    interpreter's tuple order: ``<``, ``<=``, ``max`` and ``==`` on
    entries run in C, which is what lets every clock operation below be
    a single C-level pass.  The constructor validates: it is the check
    on entries decoded from the wire and unpickled from disk.
    """

    __slots__ = ()

    def __new__(cls, version: int = 0, timestamp: int = 0) -> "ClockEntry":
        if version < 0 or timestamp < 0:
            raise ValueError(f"negative clock entry ({version},{timestamp})")
        return tuple.__new__(cls, (version, timestamp))

    version = property(itemgetter(0), doc="failures survived by the owner")
    timestamp = property(itemgetter(1), doc="progress within the version")

    def __reduce__(self):
        # Unpickling goes back through __new__, i.e. through validation.
        return type(self), tuple(self)

    def __repr__(self) -> str:
        return "(%d,%d)" % self


def entries_precede(
    mine: Sequence[ClockEntry], theirs: Sequence[ClockEntry]
) -> bool:
    """The paper's ``c1 < c2`` on two equal-length entry tuples: every
    entry <=, some entry strictly <.  The one statement of the clock
    order; ``FaultTolerantVectorClock.__lt__`` and the Theorem-1 oracle
    both call it."""
    return mine != theirs and all(map(le, mine, theirs))


class FaultTolerantVectorClock:
    """Immutable FTVC; operations return new clocks.

    Immutability means clocks can be stored in checkpoints, log entries and
    message envelopes without defensive copying -- a rollback that restores
    a checkpointed clock cannot be corrupted by later clock updates.
    ``entries`` is the clock itself, a tuple of :class:`ClockEntry`: read
    directly on the hot paths, never assigned after construction.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[ClockEntry]) -> None:
        if not entries:
            raise ValueError("FTVC needs at least one entry")
        self.entries: tuple[ClockEntry, ...] = tuple(entries)

    def __reduce__(self):
        # One flat tuple of ints: a stable-log entry carries two clocks,
        # and a reduce call per entry was half the cost of pickling it.
        return _clock_from_flat, (tuple(chain.from_iterable(self.entries)),)

    @classmethod
    def initial(cls, pid: int, n: int) -> "FaultTolerantVectorClock":
        """Figure 2 Initialize: all (0,0), own timestamp 1."""
        if not 0 <= pid < n:
            raise ValueError(f"pid {pid} out of range 0..{n - 1}")
        entries = [ClockEntry(0, 0)] * n
        entries[pid] = ClockEntry(0, 1)
        return cls(entries)

    @classmethod
    def of(
        cls, pairs: Iterable[tuple[int, int]]
    ) -> "FaultTolerantVectorClock":
        """Build from ``(version, timestamp)`` pairs (tests, scenarios)."""
        return cls(tuple(starmap(ClockEntry, pairs)))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> ClockEntry:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Entries as plain ``(version, timestamp)`` tuples."""
        return tuple(map(tuple, self.entries))

    # ------------------------------------------------------------------
    # Clock rules (Figure 2)
    # ------------------------------------------------------------------
    def tick(self, pid: int) -> "FaultTolerantVectorClock":
        """Increment the own timestamp (send / post-receive / rollback)."""
        entries = list(self.entries)
        version, timestamp = entries[pid]
        entries[pid] = _new_entry(ClockEntry, (version, timestamp + 1))
        clock = _new_clock(FaultTolerantVectorClock)
        clock.entries = tuple(entries)
        return clock

    def merge(
        self, other: "FaultTolerantVectorClock"
    ) -> "FaultTolerantVectorClock":
        """Component-wise maximum under the lexicographic entry order."""
        mine, theirs = self.entries, other.entries
        if len(theirs) != len(mine):
            raise ValueError("FTVC length mismatch")
        # One frame for the whole pass; the comparisons themselves are the
        # interpreter's tuple order (``max`` costs four times ``>=`` here).
        merged = tuple([a if a >= b else b for a, b in zip(mine, theirs)])
        # Hot-path fast path: on a pipeline link the receiver's clock very
        # often already dominates (or is dominated by) the message clock;
        # returning the existing immutable instance skips an allocation
        # per delivery.
        if merged == mine:
            return self
        if merged == theirs:
            return other
        return FaultTolerantVectorClock(merged)

    def restart(self, pid: int) -> "FaultTolerantVectorClock":
        """New incarnation: own version + 1, own timestamp reset to 0.

        Deliberately needs only the previous *version* number, never the
        (possibly lost) previous timestamp -- the property the paper relies
        on for asynchronous restart.
        """
        entries = list(self.entries)
        entries[pid] = ClockEntry(entries[pid][0] + 1, 0)
        return FaultTolerantVectorClock(entries)

    def receive(
        self, other: "FaultTolerantVectorClock", pid: int
    ) -> "FaultTolerantVectorClock":
        """Figure 2 receive: ``self.merge(other).tick(pid)`` as one pass
        and one new clock.  The comparison runs in C; only the entries the
        message raises reach the loop."""
        mine, theirs = self.entries, other.entries
        if len(theirs) != len(mine):
            raise ValueError("FTVC length mismatch")
        entries = list(mine)
        for i, entry in compress(enumerate(theirs), map(gt, theirs, mine)):
            entries[i] = entry
        version, timestamp = entries[pid]
        entries[pid] = _new_entry(ClockEntry, (version, timestamp + 1))
        clock = _new_clock(FaultTolerantVectorClock)
        clock.entries = tuple(entries)
        return clock

    # ------------------------------------------------------------------
    # Partial order (Section 4.1)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultTolerantVectorClock):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __le__(self, other: "FaultTolerantVectorClock") -> bool:
        mine, theirs = self.entries, other.entries
        if len(theirs) != len(mine):
            raise ValueError("FTVC length mismatch")
        return all(map(le, mine, theirs))

    def __lt__(self, other: "FaultTolerantVectorClock") -> bool:
        mine, theirs = self.entries, other.entries
        if len(theirs) != len(mine):
            raise ValueError("FTVC length mismatch")
        return entries_precede(mine, theirs)

    def concurrent_with(self, other: "FaultTolerantVectorClock") -> bool:
        return not (self <= other) and not (other <= self)

    # ------------------------------------------------------------------
    # Delta encoding (wire fast path)
    # ------------------------------------------------------------------
    def diff(
        self, base: "FaultTolerantVectorClock"
    ) -> tuple[tuple[int, int, int], ...]:
        """Entries differing from ``base`` as ``(index, version, timestamp)``.

        A sender that knows the last clock it put on a link can transmit
        only this diff; between consecutive messages on one link usually
        just the sender's own entry moved, so the diff is O(1) where the
        full clock is O(n).
        """
        mine, theirs = self.entries, base.entries
        if len(theirs) != len(mine):
            raise ValueError("FTVC length mismatch")
        # The comparison pass runs in C; only changed entries reach the
        # comprehension.
        changed = compress(enumerate(mine), map(ne, mine, theirs))
        return tuple([(i, v, t) for i, (v, t) in changed])

    @classmethod
    def from_delta(
        cls,
        base: "FaultTolerantVectorClock",
        changes: Iterable[tuple[int, int, int]],
    ) -> "FaultTolerantVectorClock":
        """Invert :meth:`diff`: apply ``changes`` on top of ``base``."""
        entries = list(base.entries)
        for i, version, timestamp in changes:
            entries[i] = ClockEntry(version, timestamp)
        return cls(entries)

    # ------------------------------------------------------------------
    # Overhead accounting (Section 6.9)
    # ------------------------------------------------------------------
    def piggyback_entries(self) -> int:
        """Number of scalar timestamps piggybacked on a message: O(n)."""
        return len(self.entries)

    def wire_size_bits(self, timestamp_bits: int = 32) -> int:
        """Estimated encoded size.

        Each entry needs ``timestamp_bits`` for the timestamp plus
        ``ceil(log2(f + 1))`` bits for the version, where ``f`` is the
        largest version in the clock -- the paper's "log f bits" claim.
        """
        # The lexicographic maximum carries the largest version.
        max_version = max(self.entries)[0]
        version_bits = max(1, max_version.bit_length())
        return len(self.entries) * (timestamp_bits + version_bits)

    def delta_wire_size_bits(
        self, base: "FaultTolerantVectorClock", timestamp_bits: int = 32
    ) -> int:
        """Estimated encoded size of :meth:`diff` against ``base``.

        Per changed entry: ``ceil(log2 n)`` index bits, the same version
        bits as :meth:`wire_size_bits`, and ``timestamp_bits``; plus a
        change-count field.  The counterpart of the full-clock estimate
        for Section 6.9-style accounting of the delta scheme.
        """
        mine, theirs = self.entries, base.entries
        n = len(mine)
        if len(theirs) != n:
            raise ValueError("FTVC length mismatch")
        # What :meth:`diff` lists, without the triples; the lexicographic
        # maximum of the changed entries carries the largest version.
        changed = tuple(compress(mine, map(ne, mine, theirs)))
        index_bits = max(1, (n - 1).bit_length())
        max_version = max(changed)[0] if changed else 0
        version_bits = max(1, max_version.bit_length())
        count_bits = max(1, n.bit_length())
        return count_bits + len(changed) * (
            index_bits + version_bits + timestamp_bits
        )

    @staticmethod
    def _uvarint_size(value: int) -> int:
        """Bytes a LEB128 varint needs for ``value`` (>= 0)."""
        return max(1, (value.bit_length() + 6) // 7)

    def wire_size_bytes(self) -> int:
        """Exact byte cost of the full clock under the live binary codec:
        a tag byte, a varint entry count, and one varint
        ``(version, timestamp)`` pair per entry."""
        return (
            1
            + self._uvarint_size(len(self.entries))
            + sum(map(self._uvarint_size, chain.from_iterable(self.entries)))
        )

    def delta_wire_size_bytes(self, base: "FaultTolerantVectorClock") -> int:
        """Exact byte cost of the delta frame against ``base`` under the
        live binary codec: a tag byte, a varint change count, and one
        varint ``(index, version, timestamp)`` triple per changed entry."""
        changes = self.diff(base)
        return (
            1
            + self._uvarint_size(len(changes))
            + sum(map(self._uvarint_size, chain.from_iterable(changes)))
        )

    def __repr__(self) -> str:
        inner = " ".join(map(repr, self.entries))
        return f"FTVC[{inner}]"


def _clock_from_flat(flat: tuple[int, ...]) -> FaultTolerantVectorClock:
    """Unpickle a clock from ``(v0, t0, v1, t1, ...)``: every entry goes
    back through :class:`ClockEntry`, i.e. through validation."""
    if len(flat) % 2:
        raise ValueError(f"flat clock of odd length {len(flat)}")
    return FaultTolerantVectorClock(
        tuple(map(ClockEntry, flat[::2], flat[1::2]))
    )
