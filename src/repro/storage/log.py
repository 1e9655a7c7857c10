"""Receiver-side message log with a volatile buffer.

The paper's process "stores the received messages in volatile memory and
logs it to stable storage at infrequent intervals"; at checkpoint time all
unlogged messages are force-logged, and a crash erases the volatile buffer
(creating *lost states*).  :class:`MessageLog` models exactly this.

Entries are indexed by *receive order* (0-based, monotone over the life of
the process); a checkpoint remembers the log length at the moment it was
taken, so replay after recovery is simply ``entries[checkpoint.log_position:]``.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple


class LogEntry(NamedTuple):
    """One received message as stored in the log (immutable).

    ``meta`` carries protocol metadata needed for faithful replay (e.g. the
    FTVC the message arrived with); the substrate does not interpret it.
    """

    index: int
    msg_id: int
    src: int
    payload: Any
    meta: Any = None


_new_entry = tuple.__new__


class MessageLog:
    """Volatile buffer + stable suffix, per process.

    - :meth:`append` records a received message in volatile memory;
    - :meth:`flush` moves the volatile buffer to stable storage
      (asynchronous logging is modelled by the protocol scheduling periodic
      flushes);
    - :meth:`on_crash` erases the volatile buffer -- everything not yet
      flushed is gone, exactly the paper's failure model;
    - :meth:`truncate` discards a stable suffix during rollback (legal
      because a rolling-back process first flushes, so nothing is lost).
    """

    def __init__(self, on_flush: Callable[[int], None] | None = None) -> None:
        self._stable: list[LogEntry] = []
        self._volatile: list[LogEntry] = []
        self._on_flush = on_flush
        self.flush_count = 0
        # Entries garbage-collected off the front (space reclamation, paper
        # Remark 2).  Indices remain absolute receive-order positions.
        self._gc_offset = 0
        self.gc_count = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, msg_id: int, src: int, payload: Any, meta: Any = None) -> LogEntry:
        index = self._gc_offset + len(self._stable) + len(self._volatile)
        entry = _new_entry(LogEntry, (index, msg_id, src, payload, meta))
        self._volatile.append(entry)
        return entry

    def flush(self) -> int:
        """Force the volatile buffer to stable storage.

        Returns the number of entries flushed.  Idempotent when empty.
        """
        moved = len(self._volatile)
        if moved:
            self._stable.extend(self._volatile)
            self._volatile.clear()
        self.flush_count += 1
        if self._on_flush is not None:
            self._on_flush(moved)
        return moved

    def on_crash(self) -> int:
        """A failure: the volatile buffer evaporates.

        Returns how many entries were lost.
        """
        lost = len(self._volatile)
        self._volatile.clear()
        return lost

    def truncate(self, keep: int) -> int:
        """Discard all entries with absolute index >= ``keep``.

        Used during rollback after the unlogged messages have been flushed;
        refuses to run with a non-empty volatile buffer because that would
        silently drop data the caller believes is safe.
        """
        if self._volatile:
            raise RuntimeError("truncate with unflushed volatile entries")
        local = keep - self._gc_offset
        if local < 0 or local > len(self._stable):
            raise ValueError(
                f"keep={keep} outside stable log "
                f"[{self._gc_offset}, {self.stable_length}]"
            )
        dropped = len(self._stable) - local
        del self._stable[local:]
        return dropped

    def discard_prefix(self, before: int) -> int:
        """Reclaim entries with absolute index < ``before`` (Remark 2 GC).

        Legal only once no possible recovery can replay them (the caller --
        the stability coordinator -- guarantees a newer globally-stable
        checkpoint exists).  Indices of surviving entries are unchanged.
        """
        local = before - self._gc_offset
        if local <= 0:
            return 0
        local = min(local, len(self._stable))
        del self._stable[:local]
        self._gc_offset += local
        self.gc_count += local
        return local

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def stable_length(self) -> int:
        """Absolute end position of the stable log (GC'd prefix included)."""
        return self._gc_offset + len(self._stable)

    @property
    def retained_stable_entries(self) -> int:
        """Stable entries actually held in storage (space metric)."""
        return len(self._stable)

    @property
    def volatile_length(self) -> int:
        return len(self._volatile)

    @property
    def total_length(self) -> int:
        return self.stable_length + len(self._volatile)

    def stable_entries(self, start: int = 0) -> list[LogEntry]:
        """Stable entries from absolute index ``start`` on (replay source)."""
        local = start - self._gc_offset
        if local < 0:
            raise ValueError(
                f"entries before {self._gc_offset} were garbage-collected"
            )
        return self._stable[local:]

    def retained_before(self, stop: int) -> list[LogEntry]:
        """Retained stable entries with absolute index < ``stop``: what
        ``discard_prefix(stop)`` would reclaim."""
        return self._stable[:max(0, stop - self._gc_offset)]

    def all_entries(self, start: int = 0) -> list[LogEntry]:
        """Stable followed by volatile entries from absolute ``start`` on."""
        local = start - self._gc_offset
        if local < 0:
            raise ValueError(
                f"entries before {self._gc_offset} were garbage-collected"
            )
        return (self._stable + self._volatile)[local:]

    def entry(self, index: int) -> LogEntry:
        local = index - self._gc_offset
        if local < 0:
            raise ValueError(
                f"entry {index} was garbage-collected"
            )
        if local < len(self._stable):
            return self._stable[local]
        return self._volatile[local - len(self._stable)]
