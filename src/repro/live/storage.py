"""File-backed stable storage for live processes: an append-only record log.

:class:`FileStableStorage` keeps the exact semantics of the in-memory
:class:`~repro.storage.stable.StableStorage` -- including the *volatile*
message-log buffer, which is deliberately **not** persisted (a SIGKILL
must lose it, exactly like the paper's failure model) -- and writes the
durable remainder to one file of length+CRC32-framed records
(the :mod:`repro.live.framing` header):

- a **delta** record per barrier, holding only the mutations made since
  the previous barrier (log entries flushed, checkpoint taken / suffix
  discarded / prefix collected, log truncated / prefix discarded, the
  dedup ids of a discarded prefix, sends appended / cut, token, kv put,
  outbox add / ack) plus the few always-current scalars (counters).  One ``write`` and one ``fsync``:
  a barrier costs what it flushed, not what the process has
  accumulated;
- a **snapshot** record holding the whole durable state.  It is always
  the file's first record and is written only when the file is created
  and by compaction, through a temp file, :func:`os.replace` and a
  directory fsync.  Compaction runs in place of an append once the
  bytes appended since the last snapshot exceed that snapshot's size
  (or :data:`_COMPACT_FLOOR`), so the file stays within about twice the
  state and the amortised cost per barrier stays O(delta).

The three streams -- the stable message log, the send stream and the
transport outbox -- are pickled once.  Each flush, checkpoint or outbox
flush window pickles what it adds as one *chunk*; the delta record
carries the chunk's bytes, memory keeps them, and a snapshot writes them
again as they are.  Message-log GC and outbox acks drop whole chunks
(loading skips the collected or acknowledged head of the first one), and
a truncation or cut re-pickles only the chunk it splits.

The atomicity unit is one record: it is CRC-valid or ignored.  A
transition that makes several writes -- a protocol transition, or the
operator's rewind of a stopped node -- runs inside
:meth:`FileStableStorage.atomic`, where barriers only collect their ops
and the outermost exit writes them as one record, so a SIGKILL leaves
the transition whole or absent.

Loading folds the records in order.  A bad record with nothing valid
after it is the torn tail of an append that was never acknowledged: the
file is cut back to the last good record and the cut is counted
(``torn_tails_healed``).  A bad record *followed by* a valid one damages
data a barrier already acknowledged: the storage refuses to start
(:class:`StorageCorruptionError`, naming the offset) rather than trust
a durable clock it cannot vouch for.

Writes come in two durability classes:

- **Synchronous barriers** -- token logging, ``put``, and every
  checkpoint/message-log mutation -- append their record immediately;
  the record also carries any lazy writes still pending.
- **Lazy writes** (:meth:`put_lazy`, and the transport outbox's
  ``add`` / ``ack``) are batched: at most one record per
  ``flush_window`` seconds.  A SIGKILL inside the window loses the tail
  of lazy writes -- which is sound, because a message whose *sending
  state* is durable was hardened by the same barrier (log flush /
  checkpoint) that made the state durable, and a message whose sending
  state is volatile is condemned by the sender's restart token:
  receivers discard it as obsolete, so the loss equals never having
  sent it.

``flush_window=0`` (the default for direct construction) makes every
mutation a barrier; the live node enables the window.

Values handed to ``put`` / ``put_lazy`` / ``checkpoints.take`` are
snapshots at call time: a record is written once, so mutating such a
value in place afterwards changes memory and not the disk.

``python -m repro.live.storage PATH`` prints one line per record.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.live.framing import OVERHEAD, FramingError, frame, parse_frame
from repro.live.outbox import Outbox
from repro.runtime.collector import collector_paused
from repro.storage.checkpoint import CheckpointStore, SendHistory
from repro.storage.log import MessageLog
from repro.storage.stable import StableStorage

#: First bytes of every record payload; the trailing digit is the format
#: version (5: the streams and the outbox journaled as pickled chunks, a
#: checkpoint's send history pickled as its end in the send stream, the
#: scalars only counters, and the dedup base journaled as the ids each GC
#: sweep discards instead of checkpointed whole).  It is also what lets
#: the loader look for a valid record *after* a bad one without trusting
#: the bad one's length field.
_MAGIC = b"DGL5"
_SNAPSHOT = b"S"
_DELTA = b"D"
_KIND_AT = len(_MAGIC)
_BODY = _KIND_AT + 1

#: The header's length field is 32 bits; that, not the wire's
#: ``MAX_FRAME``, caps a record (a long run's snapshot exceeds 16 MiB).
_MAX_RECORD = 2**32 - 1

#: Compaction waits for at least this many appended bytes, so a small
#: state is not re-snapshotted (rename + directory fsync) every few
#: barriers while its reload still folds only a handful of records.
_COMPACT_FLOOR = 64 * 1024


class StorageCorruptionError(RuntimeError):
    """The record log is damaged *before* its last valid record."""


# ---------------------------------------------------------------------------
# Reading the file
# ---------------------------------------------------------------------------
def _record_at(data: bytes, pos: int) -> bytes | None:
    """The payload of the whole, CRC-valid record at ``pos``, if any."""
    try:
        payload = parse_frame(data, pos, cap=_MAX_RECORD)
    except FramingError:
        return None
    if payload is None or not payload.startswith(_MAGIC):
        return None
    return payload


def _valid_record_after(data: bytes, pos: int) -> int | None:
    """Offset of the first valid record that starts beyond ``pos``."""
    at = data.find(_MAGIC, pos + OVERHEAD + 1)
    while at != -1:
        if _record_at(data, at - OVERHEAD) is not None:
            return at - OVERHEAD
        at = data.find(_MAGIC, at + 1)
    return None


def scan(data: bytes, path: str = "<bytes>") -> tuple[list[tuple[int, bytes]], int]:
    """Split ``data`` into ``[(offset, payload), ...]`` and the end of
    that valid prefix.

    Whatever lies beyond the returned end is a torn tail.  Damage that
    is not a tail -- the file does not start with a record, or a valid
    record follows a bad one -- raises.
    """
    records: list[tuple[int, bytes]] = []
    pos = 0
    while pos < len(data):
        payload = _record_at(data, pos)
        if payload is None:
            break
        records.append((pos, payload))
        pos += OVERHEAD + len(payload)
    if pos == len(data):
        return records, pos
    # A record log whose length field got its top bit flipped starts like
    # a pickle too, but still carries the tag of a first record.
    legacy = data[:1] == b"\x80" and not data.startswith(_MAGIC, OVERHEAD)
    if pos == 0 and legacy:
        raise RuntimeError(
            f"stable-storage format 'pickle image' of {path} not "
            f"supported (expected record log {_MAGIC.decode()})"
        )
    # The first record is renamed into place whole, so it is never a
    # torn append; any later record is one only if nothing follows it.
    later = _valid_record_after(data, pos)
    if pos == 0 or later is not None:
        raise StorageCorruptionError(
            f"{path}: corrupt record at offset {pos}"
            + (f" precedes a valid record at offset {later}" if later else "")
            + "; acknowledged data is damaged, refusing to load"
        )
    return records, pos


def _decode(payload: bytes) -> tuple[bytes, Any]:
    # Only CRC-valid bytes this program framed itself reach the unpickler.
    return payload[_KIND_AT:_BODY], pickle.loads(memoryview(payload)[_BODY:])


def _encode(kind: bytes, body: Any) -> bytes:
    return frame(
        _MAGIC + kind + pickle.dumps(body, protocol=4), cap=_MAX_RECORD
    )


# ---------------------------------------------------------------------------
# Stores that journal their durable mutations
# ---------------------------------------------------------------------------
class _JournaledCheckpointStore(CheckpointStore):
    """CheckpointStore whose every durable mutation is a barrier."""

    def __init__(self, barrier: Callable[[tuple], None]) -> None:
        super().__init__()
        self._barrier = barrier

    def take(self, *args: Any, **kwargs: Any):
        ckpt = super().take(*args, **kwargs)
        self._barrier(("ckpt+", ckpt))
        return ckpt

    def discard_after(self, ckpt) -> int:
        dropped = super().discard_after(ckpt)
        self._barrier(("ckpt_after", ckpt.ckpt_id))
        return dropped

    def garbage_collect_before(self, ckpt_id: int) -> int:
        dropped = super().garbage_collect_before(ckpt_id)
        if dropped:
            self._barrier(("ckpt_gc", ckpt_id))
        return dropped


class _Chunks:
    """The pickled bytes of one journaled stream, one chunk per append.

    A span ``(start, stop, blob)`` holds stream entries ``[start, stop)``
    as they were pickled when journaled.  GC drops whole spans, so the
    first one may still hold entries below the stream's base;
    :meth:`entries` skips them.
    """

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, bytes]] = []

    def add(self, start: int, entries: list) -> bytes:
        blob = pickle.dumps(entries, protocol=4)
        self.spans.append((start, start + len(entries), blob))
        return blob

    def adopt(self, start: int, blob: bytes) -> list:
        """Keep a chunk read back from the file; return its entries."""
        entries = pickle.loads(blob)
        self.spans.append((start, start + len(entries), blob))
        return entries

    def collect(self, before: int) -> None:
        """Drop the spans that end at or before ``before``."""
        spans = self.spans
        whole = 0
        while whole < len(spans) and spans[whole][1] <= before:
            whole += 1
        del spans[:whole]

    def cut(self, end: int, entries: list, base: int) -> None:
        """Drop everything from ``end`` on, re-pickling the span that
        straddles it from ``entries`` (the stream from ``base``)."""
        spans = self.spans
        while spans and spans[-1][0] >= end:
            spans.pop()
        if spans and spans[-1][1] > end:
            start = max(spans.pop()[0], base)
            if start < end:
                self.add(start, entries[start - base:end - base])

    def entries(self, base: int) -> list:
        """The stream from ``base`` on, unpickled."""
        out: list = []
        for _start, _stop, blob in self.spans:
            out.extend(pickle.loads(blob))
        if self.spans:
            del out[:base - self.spans[0][0]]
        return out


class _JournaledMessageLog(MessageLog):
    """MessageLog whose *stable* mutations are barriers.

    ``append`` touches only the volatile buffer and therefore journals
    nothing -- that is the point: unflushed messages die with the process.
    """

    def __init__(self, barrier: Callable[[tuple], None]) -> None:
        super().__init__()
        self._barrier = barrier
        self.chunks = _Chunks()

    def flush(self) -> int:
        blob = None
        if self._volatile:
            blob = self.chunks.add(self.stable_length, self._volatile)
        moved = super().flush()
        if blob is not None:
            self._barrier(("log+", blob))
        return moved

    def truncate(self, keep: int) -> int:
        dropped = super().truncate(keep)
        if dropped:
            self.chunks.cut(keep, self._stable, self._gc_offset)
            self._barrier(("log_truncate", keep))
        return dropped

    def discard_prefix(self, before: int) -> int:
        dropped = super().discard_prefix(before)
        if dropped:
            self.chunks.collect(self._gc_offset)
            self._barrier(("log_gc", before))
        return dropped


class _JournaledOutbox(Outbox):
    """Outbox journaled as per-link chunks riding the flush window.

    ``add`` only counts the entry into its link's open window.  The
    record that hardens the window calls :meth:`seal`, which pickles the
    window's still-unacknowledged messages once, as one chunk whose
    span is their seqs, and memory keeps the chunk's bytes for the
    snapshots.  A cumulative ack raises the link's watermark and drops
    the chunks it covers whole; a chunk it splits is kept as it is, and
    loading skips its acknowledged head.
    """

    def __init__(self, lazy: Callable[[tuple | None], None]) -> None:
        super().__init__()
        self._lazy = lazy
        self.chunks: dict[int, _Chunks] = {}
        self.acked: dict[int, int] = {}     # per-link ack watermark
        self._open: dict[int, int] = {}     # per-link entries not sealed

    def add(self, dst: int, msg: Any) -> int:
        seq = super().add(dst, msg)
        self._open[dst] = self._open.get(dst, 0) + 1
        self._lazy(None)
        return seq

    def ack(self, dst: int, upto: int) -> int:
        dropped = super().ack(dst, upto)
        if dropped:
            self._raise_watermark(dst, upto)
            self._lazy(("out_ack", dst, upto))
        return dropped

    def _raise_watermark(self, dst: int, upto: int) -> None:
        self.acked[dst] = max(self.acked.get(dst, 0), upto)
        chunks = self.chunks.get(dst)
        if chunks is not None:
            chunks.collect(upto + 1)

    def seal(self) -> list[tuple]:
        """One ``out+`` op per link whose open window still holds an
        unacknowledged entry (acks drop the front, so those entries are
        the tail of the link's queue)."""
        ops = []
        for dst, count in self._open.items():
            pending = self._entries[dst]
            window = pending[max(0, len(pending) - count):]
            if window:
                start = window[0][0]
                chunks = self.chunks.setdefault(dst, _Chunks())
                blob = chunks.add(start, [msg for _seq, msg in window])
                ops.append(("out+", dst, start, blob))
        self._open.clear()
        return ops

    def adopt(self, dst: int, start: int, blob: bytes) -> None:
        """Fold a chunk read back from the file: its seqs run from
        ``start``, and those at or below the watermark stay dropped."""
        chunks = self.chunks.setdefault(dst, _Chunks())
        base = self.acked.get(dst, 0) + 1
        msgs = chunks.adopt(start, blob)
        chunks.collect(base)
        self._entries.setdefault(dst, []).extend(
            entry for entry in enumerate(msgs, start) if entry[0] >= base
        )
        self._next_seq[dst] = max(self.next_seq(dst), start + len(msgs))

    def replay_ack(self, dst: int, upto: int) -> None:
        """Fold a journaled ack.  An acknowledged seq was issued, so the
        counter passes it even when no chunk of it was ever written."""
        super().ack(dst, upto)
        self._raise_watermark(dst, upto)
        self._next_seq[dst] = max(self.next_seq(dst), upto + 1)

    def state(self) -> dict[str, Any]:
        return {
            "outbox": {dst: c.spans for dst, c in self.chunks.items()},
            "outbox_acked": self.acked,
            "outbox_next_seq": self._next_seq,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.acked = state["outbox_acked"]
        self._next_seq = state["outbox_next_seq"]
        for dst, spans in state["outbox"].items():
            self.chunks[dst] = _Chunks()
            for start, _stop, blob in spans:
                self.adopt(dst, start, blob)


class FileStableStorage(StableStorage):
    """Stable storage persisted to ``path``; reloads itself on restart."""

    def __init__(
        self, pid: int, path: str, *, flush_window: float = 0.0
    ) -> None:
        super().__init__(pid)
        self.path = path
        self.flush_window = flush_window
        self.persist_count = 0          # fsync'd records (either kind)
        self.window_flushes = 0         # persists triggered by the timer
        self.dir_fsyncs = 0             # directory fsyncs (create, compaction)
        self.torn_tails_healed = 0      # loads that cut an unacknowledged tail
        # Optional fault injector (NodeFaults.disk_fault): called at the
        # top of every persist with window=True/False.  It may stall, or
        # raise for window-triggered flushes -- which must then leave the
        # dirty flag set and the flush window re-armed (the retry path).
        self.fault_hook: Callable[..., None] | None = None
        # Optional flush-before-barrier hook (LiveTrace.flush): called
        # before every durable write.  Anything that must be on disk no
        # later than this storage barrier -- the batched trace buffer --
        # hangs off this hook.  Must not raise on the happy path; if it
        # does, the persist is aborted and retried exactly like a
        # fault_hook failure.
        self.pre_persist_hook: Callable[[], None] | None = None
        self._ops: list[tuple] = []     # mutations no record holds yet
        self._dirty = False             # ... some of them lazy
        self._atomic_depth = 0          # open atomic() groups
        self._deferred = False          # a barrier waits for their exit
        self._flush_handle: asyncio.TimerHandle | None = None
        self._end = 0                   # end of the last acknowledged record
        self._snapshot_bytes = 0        # size of the file's snapshot record
        self._loading = True
        self.checkpoints = _JournaledCheckpointStore(self._barrier)
        self.log = _JournaledMessageLog(self._barrier)
        self._send_chunks = _Chunks()
        self.outbox = _JournaledOutbox(self._lazy_outbox)
        if os.path.exists(path):
            self._load()
        self._loading = False

    # ------------------------------------------------------------------
    # Mutators that StableStorage itself defines
    # ------------------------------------------------------------------
    def log_token(self, token: Any, *, dedupe_key: Any = None) -> bool:
        appended = super().log_token(token, dedupe_key=dedupe_key)
        if appended:
            self._barrier(("token", token, dedupe_key))
        return appended

    def put(self, key: str, value: Any) -> None:
        super().put(key, value)
        self._barrier(("kv", key, value))

    # The send stream's ops ride the next barrier rather than paying
    # their own: an append is made for the checkpoint whose ``ckpt+``
    # follows at once, and a tail past a restored checkpoint is never
    # read (restoring cuts it again).
    def send_append(self, entries: list[Any]) -> SendHistory:
        if entries:
            blob = self._send_chunks.add(len(self.sends), entries)
            self._ops.append(("send+", blob))
        return super().send_append(entries)

    def send_cut(self, end: int) -> int:
        dropped = super().send_cut(end)
        if dropped:
            self._send_chunks.cut(end, self.sends, 0)
            if not self._loading:
                self._ops.append(("send_cut", end))
        return dropped

    def extend_dedup_base(self, ids: list[Any]) -> None:
        # The new ids only: the op costs what the sweep discarded.
        super().extend_dedup_base(ids)
        if ids:
            self._barrier(("dedup+", ids))

    def put_lazy(self, key: str, value: Any) -> None:
        super().put_lazy(key, value)
        self._lazy(("kv", key, value))

    def _lazy_outbox(self, op: tuple | None) -> None:
        self.lazy_writes += 1
        self._lazy(op)

    def _barrier(self, op: tuple) -> None:
        if self._loading:
            return
        self._ops.append(op)
        self._persist()

    def _lazy(self, op: tuple | None) -> None:
        """Journal ``op`` with the next record.  ``None``: the outbox
        holds the write itself until that record seals it."""
        if self._loading:
            return
        if op is not None:
            self._ops.append(op)
        if self._arm_window():
            self._dirty = True
        else:
            self._persist()

    def _arm_window(self) -> bool:
        """Make sure a flush-window timer is pending.  ``False`` when
        nothing would ever fire one -- no window configured, or no event
        loop (synchronous tests) -- and the caller must persist itself."""
        if self.flush_window <= 0:
            return False
        if self._flush_handle is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                return False
            self._flush_handle = loop.call_later(
                self.flush_window, self._window_fire
            )
        return True

    def _window_fire(self) -> None:
        self._flush_handle = None
        if self._dirty:
            self.window_flushes += 1
            self._persist(window=True)

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """Write one protocol transition as one record.

        Inside the group a barrier (or a lazy write that no window
        holds) only collects its op; the outermost exit writes them all
        at once.  A transition that raises writes nothing: its ops stay
        pending, like those of a failed persist, and ride the next
        record."""
        self._atomic_depth += 1
        try:
            yield
        finally:
            self._atomic_depth -= 1
        if not self._atomic_depth and self._deferred:
            self._persist()

    def sync(self) -> None:
        """Force any pending lazy writes to disk now."""
        if self._dirty:
            self._persist()

    @property
    def pending_lazy(self) -> bool:
        """Are there lazy writes not yet on disk?  (Tests/shutdown.)"""
        return self._dirty

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _scalars(self) -> tuple:
        """What every record restates: small, and changed by calls that
        are deliberately not barriers of their own (an empty log flush,
        a deduplicated token)."""
        return (
            self.sync_writes,
            self.lazy_writes,
            self.window_flushes,
            self.token_log_dedups,
            self.log.flush_count,
        )

    def _snapshot(self) -> dict[str, Any]:
        """The whole durable state (compaction, and equality in tests).
        The streams are their journaled chunks, so compaction pickles
        none of their entries again."""
        return {
            "pid": self.pid,
            "checkpoints": self.checkpoints._checkpoints,
            "ckpt_next_id": self.checkpoints._next_id,
            "ckpt_taken": self.checkpoints.taken_count,
            "ckpt_discarded": self.checkpoints.discarded_count,
            "log_chunks": self.log.chunks.spans,
            "log_gc_offset": self.log._gc_offset,
            "log_gc_count": self.log.gc_count,
            "send_chunks": self._send_chunks.spans,
            "dedup_base": self.dedup_base,
            "tokens": self._tokens,
            "token_keys": self._token_keys,
            "kv": self._kv,
            **self.outbox.state(),
            "scalars": self._scalars(),
        }

    def _persist(self, *, window: bool = False) -> None:
        if self._loading:
            return
        if self._atomic_depth:
            self._deferred = True
            return
        self._deferred = False
        # A barrier hardens everything, pending lazy writes included --
        # but only claim the pending window once the write has actually
        # landed: if the write or its fsync raises (disk full, transient
        # I/O error) nothing was acknowledged, and marking the lazy tail
        # clean here would silently drop it forever.
        was_dirty = self._dirty
        self._dirty = False
        self._ops.extend(self.outbox.seal())
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        try:
            if self.pre_persist_hook is not None:
                self.pre_persist_hook()
            if self.fault_hook is not None:
                self.fault_hook(window=window)
            appended = self._end - self._snapshot_bytes
            if not self._end or appended > max(
                self._snapshot_bytes, _COMPACT_FLOOR
            ):
                # No file yet, or the deltas outweigh the snapshot they
                # extend: one whole-state record replaces them all.
                self._write_snapshot()
            else:
                self._append(_encode(_DELTA, (self._scalars(), self._ops)))
        except Exception:
            # The unwritten mutations stay in _ops; the next barrier,
            # sync() or re-armed window writes them with its own.
            self._dirty = True
            if was_dirty:
                self._arm_window()      # so the lazy tail is retried
            raise
        self._ops = []
        self.persist_count += 1

    def _append(self, record: bytes) -> None:
        with open(self.path, "r+b") as fh:
            # A failed append may have left bytes beyond the last
            # acknowledged record; no torn bytes may ever precede a
            # later record, so cut them before writing this one.
            if fh.seek(0, os.SEEK_END) != self._end:
                fh.truncate(self._end)
                fh.seek(self._end)
            fh.write(record)
            fh.flush()
            os.fsync(fh.fileno())
        self._end += len(record)

    def _write_snapshot(self) -> None:
        """Replace the file with one record holding the current state:
        the previous file stays whole until the rename, so there is no
        window in which the path is missing or half-written."""
        record = _encode(_SNAPSHOT, self._snapshot())
        tmp = f"{self.path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(record)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._end = self._snapshot_bytes = len(record)
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        """Make the rename itself durable.

        ``os.replace`` swaps the directory entry, but that entry only
        survives a *host* crash once the directory is fsynced; without
        this the previous file can resurrect even though persist_count
        was already bumped.  Platforms that cannot open or fsync a
        directory (e.g. Windows) are skipped.
        """
        dirname = os.path.dirname(self.path) or "."
        try:
            dirfd = os.open(dirname, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        except OSError:
            return
        try:
            os.fsync(dirfd)
            self.dir_fsyncs += 1
        except OSError:
            pass
        finally:
            os.close(dirfd)

    # ------------------------------------------------------------------
    # Loading: fold the records in order
    # ------------------------------------------------------------------
    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            data = fh.read()
        records, end = scan(data, self.path)
        # Folding builds the whole durable state at once, and none of
        # it is garbage: the automatic collector would traverse the
        # growing heap again every few hundred new containers.
        with collector_paused():
            for offset, payload in records:
                kind, body = _decode(payload)
                if (kind == _SNAPSHOT) != (offset == 0):
                    raise StorageCorruptionError(
                        f"{self.path}: misplaced {kind!r} record at "
                        f"offset {offset}"
                    )
                if kind == _SNAPSHOT:
                    self._restore(body)
                    self._snapshot_bytes = OVERHEAD + len(payload)
                else:
                    scalars, ops = body
                    for op in ops:
                        self._replay(op)
                    self._restore_scalars(scalars)
        if end < len(data):
            # Torn tail: an append that was never acknowledged.
            with open(self.path, "r+b") as fh:
                fh.truncate(end)
                os.fsync(fh.fileno())
            self.torn_tails_healed += 1
        self._end = end

    def _restore(self, state: dict[str, Any]) -> None:
        if state["pid"] != self.pid:
            raise RuntimeError(
                f"storage file {self.path} belongs to pid {state['pid']}, "
                f"not {self.pid}"
            )
        self.checkpoints._checkpoints = state["checkpoints"]
        self.checkpoints._next_id = state["ckpt_next_id"]
        self.checkpoints.taken_count = state["ckpt_taken"]
        self.checkpoints.discarded_count = state["ckpt_discarded"]
        self.log._gc_offset = state["log_gc_offset"]
        self.log.gc_count = state["log_gc_count"]
        self.log.chunks.spans = state["log_chunks"]
        self.log._stable = self.log.chunks.entries(self.log._gc_offset)
        self._send_chunks.spans = state["send_chunks"]
        self.sends = self._send_chunks.entries(0)
        for ckpt in self.checkpoints:
            self.adopt(ckpt)
        self.dedup_base = state["dedup_base"]
        self._tokens = state["tokens"]
        self._token_keys = state["token_keys"]
        self._kv = state["kv"]
        self.outbox.restore_state(state)
        self._restore_scalars(state["scalars"])

    def _restore_scalars(self, scalars: tuple) -> None:
        (
            self.sync_writes,
            self.lazy_writes,
            self.window_flushes,
            self.token_log_dedups,
            self.log.flush_count,
        ) = scalars

    def _replay(self, op: tuple) -> None:
        """Re-apply one journaled mutation (the stores' own barriers are
        inert while loading)."""
        kind = op[0]
        if kind == "kv":
            self._kv[op[1]] = op[2]
        elif kind == "out+":
            self.outbox.adopt(*op[1:])
        elif kind == "out_ack":
            self.outbox.replay_ack(*op[1:])
        elif kind == "log+":
            log = self.log
            log._stable.extend(log.chunks.adopt(log.stable_length, op[1]))
        elif kind == "log_truncate":
            self.log.truncate(op[1])
        elif kind == "log_gc":
            self.log.discard_prefix(op[1])
        elif kind == "dedup+":
            self.dedup_base.update(op[1])
        elif kind == "ckpt+":
            store = self.checkpoints
            store._checkpoints.append(op[1])
            store._next_id = op[1].ckpt_id + 1
            self.adopt(op[1])
            store.taken_count += 1
        elif kind == "ckpt_after":
            anchor = next(
                (c for c in self.checkpoints if c.ckpt_id == op[1]), None
            )
            if anchor is None:
                raise StorageCorruptionError(
                    f"{self.path}: ckpt_after names checkpoint {op[1]}, "
                    "which the image does not hold"
                )
            self.checkpoints.discard_after(anchor)
        elif kind == "ckpt_gc":
            self.checkpoints.garbage_collect_before(op[1])
        elif kind == "send+":
            sends = self.sends
            sends.extend(self._send_chunks.adopt(len(sends), op[1]))
        elif kind == "send_cut":
            self.send_cut(op[1])
        elif kind == "token":
            super().log_token(op[1], dedupe_key=op[2])
        else:
            raise StorageCorruptionError(
                f"{self.path}: unknown journaled operation {kind!r}"
            )


# ---------------------------------------------------------------------------
# python -m repro.live.storage PATH
# ---------------------------------------------------------------------------
def _size(nbytes: int) -> str:
    return f"{nbytes}B" if nbytes < 1024 else f"{round(nbytes / 1024)}KB"


def _pickled(value: Any) -> str:
    """``value``'s size as it would be pickled on its own."""
    return _size(len(pickle.dumps(value, protocol=4)))


def _streamed(
    spans: list[tuple[int, int, bytes]], base: int
) -> tuple[int, int]:
    """A journaled stream's end and the bytes of its chunks."""
    end = spans[-1][1] if spans else base
    return end, sum(len(blob) for *_, blob in spans)


def describe(data: bytes, path: str = "<bytes>") -> Iterator[str]:
    """One line per record: offset, bytes, what it holds.

    Each part of a record is sized as if pickled on its own, so small
    ops can add up to more than their record, which pickles the class
    of a repeated object once."""
    records, end = scan(data, path)
    for offset, payload in records:
        kind, body = _decode(payload)
        if kind == _SNAPSHOT:
            outbox = _JournaledOutbox(lambda _op: None)
            outbox.restore_state(body)
            out_spans = [s for c in outbox.chunks.values() for s in c.spans]
            base = body["log_gc_offset"]
            log_end, log_bytes = _streamed(body["log_chunks"], base)
            send_end, send_bytes = _streamed(body["send_chunks"], 0)
            held = (
                f"snapshot pid={body['pid']} "
                f"checkpoints={len(body['checkpoints'])}:"
                f"{_pickled(body['checkpoints'])} "
                f"log=[{base},{log_end}):{_size(log_bytes)} "
                f"log_chunks={len(body['log_chunks'])} "
                f"sends={send_end}:{_size(send_bytes)} "
                f"send_chunks={len(body['send_chunks'])} "
                f"dedup_base={len(body['dedup_base'])}:"
                f"{_pickled(body['dedup_base'])} "
                f"tokens={len(body['tokens'])} "
                f"kv={len(body['kv'])}:{_pickled(body['kv'])} "
                f"outbox={len(outbox)}:"
                f"{_size(sum(len(blob) for *_, blob in out_spans))} "
                f"out_chunks={len(out_spans)}"
            )
        else:
            _scalars, ops = body
            counts: dict[str, list[int]] = {}
            for op in ops:
                label = f"kv:{op[1]}" if op[0] == "kv" else op[0]
                tally = counts.setdefault(label, [0, 0])
                if op[0] in ("log+", "send+", "out+"):
                    tally[0] += len(pickle.loads(op[-1]))
                elif op[0] == "dedup+":
                    tally[0] += len(op[1])
                else:
                    tally[0] += 1
                tally[1] += len(pickle.dumps(op, protocol=4))
            held = "delta " + (
                ",".join(
                    f"{k}x{n}:{_size(nbytes)}"
                    for k, (n, nbytes) in counts.items()
                )
                or "-"
            )
        yield f"offset={offset} bytes={OVERHEAD + len(payload)} {held}"
    if end < len(data):
        yield (
            f"offset={end} bytes={len(data) - end} TORN TAIL "
            "(unacknowledged append; the next load cuts it)"
        )


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m repro.live.storage PATH", file=sys.stderr)
        return 2
    with open(args[0], "rb") as fh:
        data = fh.read()
    try:
        for line in describe(data, args[0]):
            print(line)
    except RuntimeError as exc:     # refused: say why, read-only
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
