"""Per-process stable storage.

A :class:`StableStorage` object survives simulated crashes by construction:
the protocol clears only its *volatile* members on failure.  It aggregates
the checkpoint store, the message log, a synchronously-written token log
(the paper logs every received token synchronously so a crash cannot forget
one), the Remark-1 send stream, and a small key-value area for durable
scalars such as the version number.

The send stream holds each send once.  A checkpoint appends the sends
made since the previous one (:meth:`StableStorage.send_append`) and
keeps the returned :class:`~repro.storage.checkpoint.SendHistory` -- the
stream's prefix up to its new end -- in its extras under
:data:`~repro.storage.checkpoint.SEND_LOG`.  Restoring that checkpoint
cuts the stream back to that end (:meth:`StableStorage.send_cut_to`), so
the prefix each retained checkpoint names is its send history.

A transition that makes several durable writes (a checkpoint with its
log flush, a restart, a rollback, a GC sweep, and the operator's rewind
of a stopped node) runs inside :meth:`StableStorage.atomic`, which
``FileStableStorage`` turns into one record.  Memory cannot be
half-written, so here it does nothing.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, ContextManager

from repro.storage.checkpoint import (
    SEND_LOG,
    Checkpoint,
    CheckpointStore,
    SendHistory,
)
from repro.storage.log import MessageLog

_NO_GROUP = nullcontext()


class StableStorage:
    """Everything process ``pid`` keeps on disk."""

    #: Write-ahead intents opened: none, since every transition is one
    #: record.  Read by the benchmark's per-delivery intent count.
    intents_begun = 0

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.checkpoints = CheckpointStore()
        self.log = MessageLog()
        self.sends: list[Any] = []      # the send stream; read-only outside
        self._tokens: list[Any] = []
        self._token_keys: set[Any] = set()
        self._kv: dict[str, Any] = {}
        self.sync_writes = 0
        self.lazy_writes = 0
        self.token_log_dedups = 0

    # ------------------------------------------------------------------
    # Token log (synchronous)
    # ------------------------------------------------------------------
    def log_token(self, token: Any, *, dedupe_key: Any = None) -> bool:
        """Synchronously persist a received token (paper Section 6.3).

        With ``dedupe_key`` (e.g. ``(origin, version)``), a token whose
        key is already logged is skipped: tokens are final per version,
        so the retained copy is byte-identical and the skip saves both
        the synchronous write and unbounded token-log growth under
        retransmitted/duplicated tokens -- the log stays O(n·f).
        Returns whether an entry was actually appended.
        """
        if dedupe_key is not None:
            if dedupe_key in self._token_keys:
                self.token_log_dedups += 1
                return False
            self._token_keys.add(dedupe_key)
        self._tokens.append(token)
        self.sync_writes += 1
        return True

    @property
    def tokens(self) -> list[Any]:
        return list(self._tokens)

    # ------------------------------------------------------------------
    # Send stream (paper Remark 1)
    # ------------------------------------------------------------------
    def send_append(self, entries: list[Any]) -> SendHistory:
        """Append ``entries`` to the send stream; return the history it
        now holds (what the checkpoint being taken records)."""
        self.sends.extend(entries)
        return SendHistory(len(self.sends), self.sends)

    def send_cut(self, end: int) -> int:
        """Drop the stream past offset ``end``; return how many went."""
        dropped = len(self.sends) - end
        if dropped < 0:
            raise ValueError(
                f"cut at {end} past the send stream's end {len(self.sends)}"
            )
        del self.sends[end:]
        return dropped

    def send_cut_to(self, ckpt: Checkpoint) -> int:
        """Cut the stream back to the end of ``ckpt``'s send history (a
        checkpoint taken without retransmission names none: no cut)."""
        return self.send_cut(self._send_end(ckpt))

    def sends_after(self, ckpt: Checkpoint) -> list[Any]:
        """The sends past ``ckpt``'s history, which cutting to it drops."""
        return self.sends[self._send_end(ckpt):]

    def adopt(self, ckpt: Checkpoint) -> None:
        """Bind a checkpoint read back from the disk to this stream."""
        history = ckpt.extras.get(SEND_LOG)
        if history is not None:
            history.bind(self.sends)

    def _send_end(self, ckpt: Checkpoint) -> int:
        history = ckpt.extras.get(SEND_LOG)
        return len(self.sends) if history is None else history.end

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def atomic(self) -> ContextManager[None]:
        """Group the writes of one protocol transition into one durable
        step.  In memory every write is already as durable as it gets."""
        return _NO_GROUP

    # ------------------------------------------------------------------
    # Durable scalars
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self._kv[key] = value
        self.sync_writes += 1

    def put_lazy(self, key: str, value: Any) -> None:
        """Buffered durable write: the value becomes durable at the next
        synchronous barrier (any :meth:`put`, token log, checkpoint or
        log mutation) or flush window, whichever comes first.  In-memory
        storage has no window, so this is :meth:`put` minus the
        synchronous-write accounting."""
        self._kv[key] = value
        self.lazy_writes += 1

    def get(self, key: str, default: Any = None) -> Any:
        return self._kv.get(key, default)

    # ------------------------------------------------------------------
    # Failure hook
    # ------------------------------------------------------------------
    def on_crash(self) -> int:
        """Apply crash semantics: only the volatile log buffer is lost."""
        return self.log.on_crash()

