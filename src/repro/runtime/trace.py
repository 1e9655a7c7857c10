"""Protocol-independent ground-truth event trace.

Every simulation records what *actually happened* -- sends, deliveries,
crashes, restarts, rollbacks, discards -- into a :class:`SimTrace`.  The
analysis oracles (:mod:`repro.analysis`) reconstruct the extended
happen-before relation of the paper's Section 3 from this trace alone and
check the protocol's behaviour against it.  Protocols therefore cannot
"grade their own homework": the trace is written by the substrate and by
thin, audited hooks, not by protocol logic.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from enum import Enum
from types import SimpleNamespace
from typing import Any, Iterator, NamedTuple

_new_event = tuple.__new__

#: Events per ``Pickler.dump`` in :meth:`SimTrace.signature`: what the
#: digest holds at once.  Part of the encoding: changing it changes the
#: signature of every trace longer than a chunk.  64-512 time alike on
#: a stress schedule; 1024 and up are slower.
_DIGEST_CHUNK = 256


class EventKind(Enum):
    """The vocabulary of trace events."""

    SEND = "send"                  # application message handed to network
    DELIVER = "deliver"            # application message delivered to the app
    DISCARD = "discard"            # message rejected (obsolete / duplicate)
    POSTPONE = "postpone"          # delivery delayed pending a token
    CRASH = "crash"                # process failed, volatile state lost
    RESTORE = "restore"            # checkpoint restored (precedes replay)
    RESTART = "restart"            # failed process restored and running again
    ROLLBACK = "rollback"          # non-failed process undid orphan states
    CHECKPOINT = "checkpoint"      # state saved to stable storage
    LOG_FLUSH = "log_flush"        # volatile message log forced to stable
    TOKEN_SEND = "token_send"      # recovery token broadcast
    TOKEN_DELIVER = "token_deliver"
    STATE = "state"                # new state interval began
    OUTPUT = "output"              # output committed to the environment
    PARTITION = "partition"        # network partition imposed
    HEAL = "heal"                  # network partition healed
    CUSTOM = "custom"


class TraceEvent(NamedTuple):
    """One recorded occurrence (immutable).

    ``fields`` carries kind-specific data (message ids, state ids, version
    numbers).  Keeping it a plain dict keeps the trace schema-free; the
    analysis layer documents the keys each oracle requires.  Indexing an
    event reads ``fields``, not the tuple: ``event["msg_id"]``.
    """

    seq: int
    time: float
    kind: EventKind
    pid: int
    fields: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class SimTrace:
    """Append-only event log with query helpers."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        # The same events again by kind, so a per-kind query costs its
        # matches, not the trace (keyed by the kind's value: hashing an
        # Enum member is a Python call).
        self._by_kind: dict[str, list[TraceEvent]] = defaultdict(list)

    def record(
        self, time: float, kind: EventKind, pid: int, **fields: Any
    ) -> TraceEvent:
        events = self._events
        event = _new_event(TraceEvent, (len(events), time, kind, pid, fields))
        events.append(event)
        self._by_kind[kind._value_].append(event)
        return event

    def _of_kind(self, kind: EventKind) -> list[TraceEvent]:
        return self._by_kind.get(kind._value_, [])

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(
        self,
        kind: EventKind | None = None,
        pid: int | None = None,
    ) -> list[TraceEvent]:
        """Events filtered by kind and/or process id, in order."""
        events = self._events if kind is None else self._of_kind(kind)
        if pid is None:
            return list(events)
        return [e for e in events if e.pid == pid]

    def count(self, kind: EventKind, pid: int | None = None) -> int:
        of_kind = self._of_kind(kind)
        if pid is None:
            return len(of_kind)
        return sum(1 for e in of_kind if e.pid == pid)

    def last(self, kind: EventKind, pid: int | None = None) -> TraceEvent | None:
        for event in reversed(self._of_kind(kind)):
            if pid is None or event.pid == pid:
                return event
        return None

    def signature(self) -> str:
        """A deterministic digest of the whole trace (32 hex digits).

        Two runs with the same seed must produce equal signatures; the
        determinism tests rely on this.  Each event goes in as ``(seq,
        time, kind value, pid, sorted field items)``, pickled (protocol
        5) straight into the hash, :data:`_DIGEST_CHUNK` events per
        ``dump``.  The pickler keeps no memo, so the bytes depend on the
        values alone, never on which of them happen to be one object.
        """
        import pickle   # here: a run that is never digested never loads it

        digest = hashlib.blake2b(digest_size=16)
        sink = SimpleNamespace(write=digest.update)
        pickler = pickle.Pickler(sink, protocol=5)
        pickler.fast = True     # no memo
        events = self._events
        for start in range(0, len(events), _DIGEST_CHUNK):
            pickler.dump([
                (seq, time, kind._value_, pid, sorted(fields.items()))
                for seq, time, kind, pid, fields
                in events[start:start + _DIGEST_CHUNK]
            ])
        return digest.hexdigest()
