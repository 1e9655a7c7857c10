"""The history mechanism (paper Section 5, Figure 3).

Each process keeps, in volatile memory, at most one record per known
``(process, version)`` pair:

- a **token record** ``(token, v, t)`` -- "version ``v`` of that process
  failed and was restored at timestamp ``t``"; token records are final for
  their version (the restoration point is a fact) and are never overwritten
  by message records;
- a **message record** ``(mes, v, t)`` -- "the largest timestamp of version
  ``v`` of that process that we transitively depend on is ``t``"; updated
  by taking the maximum over the clocks of delivered messages.

The two exact tests the paper proves:

- **obsolete message** (Lemma 4): message ``m`` is obsolete iff for some
  ``j`` the history holds ``(token, v, t)`` for ``P_j`` while
  ``m.clock[j] = (v, t')`` with ``t' > t``;
- **orphan state** (Lemma 3): on receiving token ``(v, t)`` from ``P_j``,
  the local state is an orphan iff the history holds ``(mes, v, t')`` for
  ``P_j`` with ``t' > t``.

The history is O(n·f) space (Section 6.9): at most one record per version
per process.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from repro.core.ftvc import FaultTolerantVectorClock
from repro.core.tokens import RecoveryToken


class RecordKind(Enum):
    """Whether a history record came from a message clock (maximum-updated)
    or from a token (final for its version)."""

    MESSAGE = "mes"
    TOKEN = "token"


_MESSAGE, _TOKEN = RecordKind.MESSAGE, RecordKind.TOKEN
_version_of = itemgetter(0)
_new_record = tuple.__new__     # no namedtuple ``__new__`` frame per record


class HistoryRecord(NamedTuple):
    """One ``(kind, version, timestamp)`` record for some ``(process, version)``."""

    kind: RecordKind
    version: int
    timestamp: int

    def __repr__(self) -> str:
        return f"({self.kind.value},{self.version},{self.timestamp})"


class History:
    """Per-process history table: ``history[j][version] -> HistoryRecord``."""

    def __init__(self, pid: int, n: int) -> None:
        if not 0 <= pid < n:
            raise ValueError(f"pid {pid} out of range 0..{n - 1}")
        self.pid = pid
        self.n = n
        self._records: list[dict[int, HistoryRecord]] = [{} for _ in range(n)]
        # Compaction floor per process: records for versions below the
        # floor have been dropped (see compact()); a clock entry below
        # the floor is treated as obsolete and a token below it as
        # already-applied.
        self._floor: list[int] = [0] * n
        # Per process, the version ``v`` such that every version in
        # ``[floor, v)`` has a token record and no version ``>= v`` has
        # one; -1 while tokens have arrived out of order (v+1 before v).
        # A clock whose versions equal this tuple is neither obsolete nor
        # waiting for a token -- see :meth:`admits`.
        self._frontier: tuple[int, ...] = (0,) * n
        # Figure 3 Initialize: (mes,0,0) for every process, (mes,0,1) for self.
        for j in range(n):
            self._records[j][0] = HistoryRecord(_MESSAGE, 0, 0)
        self._records[pid][0] = HistoryRecord(_MESSAGE, 0, 1)

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def record(self, j: int, version: int) -> HistoryRecord | None:
        """The record for version ``version`` of process ``j``, if any."""
        return self._records[j].get(version)

    def records_for(self, j: int) -> list[HistoryRecord]:
        """All records kept about process ``j``, oldest version first."""
        return [self._records[j][v] for v in sorted(self._records[j])]

    def has_token(self, j: int, version: int) -> bool:
        if version < self._floor[j]:
            # Compaction precondition: every compacted version's token
            # was observed before its record was dropped.
            return True
        rec = self._records[j].get(version)
        return rec is not None and rec[0] is _TOKEN

    def floor(self, j: int) -> int:
        """Versions of ``j`` below this have been compacted away."""
        return self._floor[j]

    def size(self) -> int:
        """Total records held -- the O(n·f) quantity of Section 6.9."""
        return sum(len(per) for per in self._records)

    # ------------------------------------------------------------------
    # Updates (Figure 3)
    # ------------------------------------------------------------------
    def observe_message_clock(self, clock: FaultTolerantVectorClock) -> None:
        """Receive-message rule: raise message records to the clock's entries.

        A token record for the same version is kept as-is: the restoration
        point is final, and a message that would contradict it (timestamp
        above the token's) is obsolete and must have been discarded before
        this method is called.
        """
        if len(clock.entries) != self.n:
            raise ValueError("clock length mismatch")
        for per, floor, (version, timestamp) in zip(
            self._records, self._floor, clock.entries
        ):
            if version < floor:
                # Below the compaction floor nothing is recorded; such a
                # clock can only reach here through a replayed log entry
                # whose original delivery predates the floor advance.
                continue
            existing = per.get(version)
            if existing is not None and (
                existing[0] is _TOKEN or existing[2] >= timestamp
            ):
                continue
            per[version] = _new_record(
                HistoryRecord, (_MESSAGE, version, timestamp)
            )

    def observe_token(self, token: RecoveryToken) -> None:
        """Receive-token rule: install the final record for that version."""
        if token.version < self._floor[token.origin]:
            # Already observed, applied, and compacted away (tokens are
            # final per version, so a duplicate carries nothing new).
            return
        record = _new_record(
            HistoryRecord, (_TOKEN, token.version, token.timestamp)
        )
        per = self._records[token.origin]
        # Restart and rollback re-apply every logged token; most are
        # already in place.
        if per.get(token.version) != record:
            per[token.version] = record
            self._refresh_frontier(token.origin)

    def _refresh_frontier(self, j: int) -> None:
        """Recompute ``_frontier[j]`` after a token record of ``j`` changed
        (no record sits below the floor, so counting tokens tells whether
        they form one run starting there)."""
        per = self._records[j]
        tokened = [v for v, rec in per.items() if rec[0] is _TOKEN]
        floor, count = self._floor[j], len(tokened)
        in_order = not tokened or max(tokened) - floor + 1 == count
        frontier = list(self._frontier)
        frontier[j] = floor + count if in_order else -1
        self._frontier = tuple(frontier)

    # ------------------------------------------------------------------
    # The paper's exact tests
    # ------------------------------------------------------------------
    def admits(self, clock: FaultTolerantVectorClock) -> bool:
        """One C-level comparison that settles the common receive: true
        means :meth:`is_obsolete` is false and :meth:`missing_tokens` is
        empty, because every entry names the version the frontier holds
        for its process -- no token of its own, one for every version
        below it.  False means "run the two exact tests"."""
        return tuple(map(_version_of, clock.entries)) == self._frontier

    def is_obsolete(self, clock: FaultTolerantVectorClock) -> bool:
        """Lemma 4: the message carrying ``clock`` is from a lost or orphan
        state iff some entry exceeds a known token's restoration point.

        An entry below a compaction floor is treated as obsolete: the
        compacted versions' restoration points are gone, so the exact
        Lemma 4 comparison is no longer available, and delivering such a
        message could make us an undetectable orphan (its record would
        be skipped by the floor).  Conservative discard avoids that, but
        it also discards messages of surviving states (a known bug, see
        :meth:`compact`).
        """
        entries = clock.entries
        if len(entries) != self.n:
            raise ValueError("clock length mismatch")
        for per, floor, (version, timestamp) in zip(
            self._records, self._floor, entries
        ):
            if version < floor:
                return True
            rec = per.get(version)
            if rec is not None and rec[0] is _TOKEN and timestamp > rec[2]:
                return True
        return False

    def missing_tokens(
        self, clock: FaultTolerantVectorClock
    ) -> list[tuple[int, int]]:
        """Deliverability test (Section 6.1).

        A message is not deliverable if its clock mentions version ``k`` of
        some process ``j`` while we have not yet received the tokens for all
        versions ``l < k`` of ``P_j``.  Returns the ``(j, l)`` pairs still
        awaited (empty list == deliverable).
        """
        entries = clock.entries
        if len(entries) != self.n:
            raise ValueError("clock length mismatch")
        missing: list[tuple[int, int]] = []
        for j, (per, floor, (version, _)) in enumerate(
            zip(self._records, self._floor, entries)
        ):
            # Versions below the floor are known-tokened (compaction
            # precondition), so the scan starts at the floor.
            for l in range(floor, version):
                rec = per.get(l)
                if rec is None or rec[0] is not _TOKEN:
                    missing.append((j, l))
        return missing

    def orphaned_by(self, token: RecoveryToken) -> bool:
        """Lemma 3: are we an orphan of this failure?

        True iff we transitively depend on a state of the failed version
        with a timestamp above the restoration point.
        """
        rec = self._records[token.origin].get(token.version)
        return (
            rec is not None
            and rec[0] is _MESSAGE
            and rec[2] > token.timestamp
        )

    def survives_token(self, token: RecoveryToken) -> bool:
        """Non-orphan test used for the rollback scan (Figure 4, step I).

        A checkpointed history survives iff it holds no message record for
        the failed version, or that record's timestamp is at most the
        restoration point.  (The paper's step I writes the strict ``t' < t``;
        we use ``t' <= t``, consistent with Lemma 3's orphan condition
        ``t < t'`` -- a state that depends exactly on the restored state is
        not an orphan, since the restored state survives.)
        """
        rec = self._records[token.origin].get(token.version)
        if rec is None or rec[0] is _TOKEN:
            return True
        return rec[2] <= token.timestamp

    # ------------------------------------------------------------------
    # Compaction (Section 6.9)
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Drop records superseded under the token-supersession rule.

        For each process ``j``, scan the contiguous run of TOKEN records
        starting at the current floor.  Every version in that run except
        the newest has a token for a *newer* version sitting right above
        it, which makes its record dead on two of its three paths:

        - ``orphaned_by`` / ``survives_token`` (Lemma 3): the token was
          observed and applied before compaction ran, so any orphan it
          condemns has already rolled back; a duplicate token is a no-op.
        - ``missing_tokens``: the floor certifies the token was seen.
        - ``is_obsolete`` (Lemma 4): a clock entry below the floor is
          answered conservatively -- obsolete -- instead of comparing
          against the dropped restoration point.  That is *not* safe, and
          a known bug: an entry at or below the old restoration point
          belongs to a surviving state, and a process that has not heard
          from ``j`` since that incarnation (one that never received from
          ``j`` carries ``(0, 0)``) keeps sending it.  Those messages are
          discarded although their senders survive, and nothing resends
          them (tests/stress/test_known_failures.py, compaction case).

        The newest token of the run is kept: no newer token supersedes
        it, and it is the live restoration point for Lemma 4.  MESSAGE
        records are never compacted.  Returns the number of records
        dropped.
        """
        dropped = 0
        for j in range(self.n):
            run_end = self._floor[j]
            while True:
                rec = self._records[j].get(run_end)
                if rec is None or rec[0] is not _TOKEN:
                    break
                run_end += 1
            new_floor = run_end - 1     # keep the newest token of the run
            if new_floor <= self._floor[j]:
                continue
            for version in range(self._floor[j], new_floor):
                if self._records[j].pop(version, None) is not None:
                    dropped += 1
            # The frontier stays put: the floor moved inside the run of
            # tokens it already counted.
            self._floor[j] = new_floor
        return dropped

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot(self) -> "History":
        """A copy safe to store in a checkpoint.

        Structural copy, not ``copy.deepcopy``: records are immutable
        tuples, so sharing them between snapshots is safe, and
        snapshots run on every checkpoint -- this is the protocol's
        hottest allocation site after the clock itself.
        """
        clone = History.__new__(History)
        clone.pid = self.pid
        clone.n = self.n
        clone._records = list(map(dict, self._records))
        clone._floor = list(self._floor)
        clone._frontier = self._frontier
        return clone

    def __repr__(self) -> str:
        parts = []
        for j in range(self.n):
            recs = " ".join(repr(r) for r in self.records_for(j))
            parts.append(f"P{j}:[{recs}]")
        return "History(" + ", ".join(parts) + ")"
