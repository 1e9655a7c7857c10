"""The live (asyncio) implementation of :class:`~repro.runtime.env.RuntimeEnv`.

One :class:`LiveEnv` backs one OS process in a live cluster.  The clock is
monotonic time anchored once to the cluster-wide epoch (the wall clock is
consulted exactly one time, at anchor computation; every subsequent ``now``
read is ``time.monotonic()`` against that anchor, so NTP slews and
wall-clock steps cannot warp env-time or produce negative latencies),
timers are event-loop timers, sends go through the reconnecting mesh
transport, and the trace is an append-only JSONL file the supervisor later
merges across processes.

``alive`` is always true here: a live process that crashed is not running
this code.  Downtime is real -- the supervisor SIGKILLs the process and
starts a fresh one, which resumes from :class:`FileStableStorage`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import time
from math import isfinite
from typing import Any, Callable, IO

from repro.live import codec
from repro.live.framing import compact_json
from repro.runtime.collector import collector_paused
from repro.runtime.env import RuntimeEnv, TimerHandle
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind, SimTrace


_json_str = json.encoder.encode_basestring_ascii
_int_text = int.__repr__
_float_text = float.__repr__
#: ``%d`` renders an int exactly as ``int.__repr__`` does; a uid is three
#: ints and a dedup id two, so short tuples are the ones worth a template.
_INT_TUPLES = {
    size: '{"__tuple__":[%s]}' % ",".join(["%d"] * size) for size in range(9)
}
_TUPLE_ITEM_TEXT = {int: _int_text, str: _json_str}
_CODEC_FIRST = (
    bool, int, float, str, list, tuple, set, frozenset, dict,
    codec.FaultTolerantVectorClock,
)


@functools.cache
def _dataclass_text(cls: type) -> tuple[str, tuple[tuple[str, str], ...]] | None:
    """The fixed text of a codec-encodable dataclass's line: its
    ``{"__dc__":...,"fields":{`` head and each field's name with its
    ``"name":`` key; None for any class the codec does not encode as
    a dataclass (its checks for scalars and containers come first)."""
    if (
        not dataclasses.is_dataclass(cls)
        or issubclass(cls, _CODEC_FIRST)
        or not cls.__module__.startswith(codec.TRUSTED_PREFIX)
    ):
        return None
    path = _json_str(f"{cls.__module__}:{cls.__qualname__}")
    return '{"__dc__":%s,"fields":{' % path, tuple(
        (name, _json_str(name) + ":") for name in codec.field_names(cls)
    )


def _json(value: Any) -> str:
    """``compact_json(codec.encode(value))``, byte for byte.

    The values a delivery's trace lines hold -- ints, strs, bools, None,
    finite floats, tuples of ints and strs (uids, dedup ids, a
    pipeline's output) and ``repro`` dataclasses (a KV reply) -- are
    formatted here; every other value (NaN and the infinities included)
    takes the generic codec.
    """
    cls = type(value)
    if cls is int:
        return _int_text(value)
    if cls is str:
        return _json_str(value)
    if cls is tuple:
        template = _INT_TUPLES.get(len(value))
        if template is not None:
            for item in value:
                if type(item) is not int:
                    break
            else:
                return template % value
        try:
            return '{"__tuple__":[%s]}' % ",".join(
                [_TUPLE_ITEM_TEXT[type(item)](item) for item in value]
            )
        except KeyError:
            pass        # an item that is neither int nor str
    elif cls is float:
        if isfinite(value):
            return _float_text(value)
    elif cls is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    else:
        text = _dataclass_text(cls)
        if text is not None:
            head, fields = text
            return head + ",".join(
                [key + _json(getattr(value, name)) for name, key in fields]
            ) + "}}"
    return compact_json(codec.encode(value))


def _decoded(value: Any) -> Any:
    """``codec.decode(value)`` for one parsed field: JSON scalars are
    their own decoding, ``{"__tuple__": [...]}`` of ints and strs is a
    tuple of them, and everything else takes the generic codec."""
    cls = type(value)
    if cls is dict:
        if len(value) == 1:
            items = value.get("__tuple__")
            if type(items) is list:
                for item in items:
                    if type(item) is not int and type(item) is not str:
                        break
                else:
                    return tuple(items)
        return codec.decode(value)
    if cls is list:
        return codec.decode(value)
    return value


class LiveTrace:
    """JSONL ground-truth trace writer with the :class:`SimTrace` record API.

    Each line is ``{"t": float, "kind": str, "pid": int, "fields": {...}}``
    with fields passed through the tagged-JSON codec (clocks and
    dataclasses survive the round trip).  Each line is written directly,
    without building the dict: :func:`_json` formats the field values a
    delivery records and hands every other value to the codec, and the
    bytes equal ``compact_json`` of that dict.

    Writes are **batched**: records accumulate in a user-space buffer and
    reach the file in groups of at most ``buffer_records`` lines or after
    ``buffer_seconds``, whichever comes first (one ``write`` + ``flush``
    per group instead of one per record -- the per-record flush used to be
    ~9 writes per pipeline job, the hottest syscall on the delivery path).

    The bounded-loss rule that keeps the grading oracle's ground truth
    intact under SIGKILL:

    - a SIGKILL loses **at most the unflushed buffer** -- and the node
      wires :meth:`flush` as the storage's ``pre_persist_hook``, so the
      buffer is forced out *before every stable-storage sync barrier*.
      Any trace record describing an event whose effects became durable
      (an OUTPUT whose log entry was flushed and will therefore be
      replayed with emission suppressed, a TOKEN_SEND whose token was
      logged) is on disk before the barrier that made the effect durable;
    - records that die in the buffer describe only volatile state the
      protocol itself lost in the same crash -- state it regenerates from
      scratch (and re-records) after the restart, exactly as if the event
      had never happened;
    - :meth:`close` flushes, so a clean shutdown loses nothing.

    ``buffer_records=1`` restores the old flush-per-record behaviour.
    Without a running event loop (synchronous tests) there is nothing to
    fire the timer, so records flush immediately -- same observable
    behaviour as before.
    """

    def __init__(
        self,
        fh: IO[str],
        *,
        buffer_records: int = 64,
        buffer_seconds: float = 0.05,
    ) -> None:
        if buffer_records < 1:
            raise ValueError(
                f"buffer_records must be >= 1, got {buffer_records}"
            )
        self._fh = fh
        self.buffer_records = buffer_records
        self.buffer_seconds = buffer_seconds
        self._buffer: list[str] = []
        self._flush_handle: asyncio.TimerHandle | None = None
        self.records_written = 0
        self.flushes = 0                    # grouped writes that hit the file
        self.records_buffered_max = 0       # high-water mark of the buffer

    def record(
        self, time_: float, kind: EventKind, pid: int, **fields: Any
    ) -> None:
        self._buffer.append(
            '{"t":%s,"kind":%s,"pid":%s,"fields":{%s}}\n' % (
                _json(time_),
                _json_str(kind._value_),
                _json(pid),
                ",".join([
                    _json_str(key) + ":" + _json(value)
                    for key, value in fields.items()
                ]),
            )
        )
        self.records_written += 1
        if len(self._buffer) > self.records_buffered_max:
            self.records_buffered_max = len(self._buffer)
        if len(self._buffer) >= self.buffer_records:
            self.flush()
            return
        if self._flush_handle is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                # No event loop to fire the timer: flush now so records
                # can never sit in the buffer indefinitely.
                self.flush()
                return
            self._flush_handle = loop.call_later(
                self.buffer_seconds, self._timer_fire
            )

    def _timer_fire(self) -> None:
        self._flush_handle = None
        self.flush()

    def flush(self) -> None:
        """Write the buffered records out now (one write, one flush).

        Safe to call with an empty buffer (no-op, not counted).  This is
        the method the live node installs as the stable storage's
        ``pre_persist_hook``: ordering the trace write *before* the
        storage barrier is what bounds SIGKILL loss to volatile state.
        """
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._buffer:
            return
        pending, self._buffer = self._buffer, []
        self._fh.write("".join(pending))
        self._fh.flush()
        self.flushes += 1

    def close(self) -> None:
        self.flush()
        self._fh.close()


def merge_traces(paths: list[str]) -> SimTrace:
    """Merge per-process JSONL trace files into one :class:`SimTrace`.

    Events are ordered by timestamp, with the per-file order breaking ties
    (timestamps come from one wall clock per machine, so cross-process
    ties are rare and their order is not load-bearing for the oracles).
    """
    # The parsed rows are freed on the way out of _merged, before the
    # exit collection: it traverses the merged trace alone.
    with collector_paused():
        return _merged(paths)


def _merged(paths: list[str]) -> SimTrace:
    rows: list[tuple[float, int, int, dict]] = []
    for file_index, path in enumerate(paths):
        with open(path, "r", encoding="utf-8") as fh:
            for line_index, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    # A SIGKILLed incarnation can leave a truncated final
                    # line; the event was never durably observed, so
                    # dropping it loses nothing the oracles rely on.
                    continue
                rows.append((row["t"], file_index, line_index, row))
    # (t, file, line) is unique, so two rows never compare their dicts.
    rows.sort()
    kinds = {kind.value: kind for kind in EventKind}
    trace = SimTrace()
    for _, _, _, row in rows:
        trace.record(
            row["t"],
            kinds[row["kind"]],
            row["pid"],
            **{k: _decoded(v) for k, v in row["fields"].items()},
        )
    return trace


class _LiveTimerHandle:
    """Event-loop timer with the :class:`TimerHandle` surface."""

    __slots__ = ("_handle", "_time", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle, time_: float) -> None:
        self._handle = handle
        self._time = time_
        self._cancelled = False

    @property
    def time(self) -> float:
        return self._time

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()


class LiveEnv(RuntimeEnv):
    """One live OS process's runtime environment."""

    def __init__(
        self,
        *,
        pid: int,
        n: int,
        storage: Any,
        transport: Any,
        epoch: float,
        crash_count: int = 0,
        trace: LiveTrace | None = None,
        tracer: Any | None = None,
        loop: asyncio.AbstractEventLoop | None = None,
        mono_anchor: float | None = None,
    ) -> None:
        self.pid = pid
        self.n = n
        self.storage = storage
        self.transport = transport
        self.epoch = epoch
        self.trace = trace
        self._tracer = tracer
        self._crash_count = crash_count
        self._loop = loop
        self._msg_counter = 0
        # ``mono_anchor`` is the time.monotonic() reading that corresponds
        # to env-time zero.  Callers that observed the epoch at a known
        # instant (repro.live.node) pass their own anchor; otherwise it is
        # derived here with the construction-time wall clock -- the single
        # wall-clock read this object ever makes.
        if mono_anchor is None:
            mono_anchor = time.monotonic() - (time.time() - epoch)
        self._mono_anchor = mono_anchor

    # ------------------------------------------------------------------
    # Clock, liveness, observability
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return time.monotonic() - self._mono_anchor

    @property
    def alive(self) -> bool:
        return True

    @property
    def crash_count(self) -> int:
        return self._crash_count

    @property
    def tracer(self) -> Any | None:
        return self._tracer

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _next_msg_id(self) -> int:
        # Unique across processes and incarnations: pid and boot number in
        # the high bits, a local counter below.
        self._msg_counter += 1
        return (
            (self.pid << 48)
            | ((self._crash_count & 0xFFFF) << 32)
            | self._msg_counter
        )

    def send(
        self,
        dst: int,
        payload: Any,
        *,
        kind: str = "app",
        latency: float | None = None,
    ) -> NetworkMessage:
        # ``latency`` is a simulation-only knob; real links have real
        # latency.
        msg = NetworkMessage(
            msg_id=self._next_msg_id(),
            src=self.pid,
            dst=dst,
            kind=kind,
            payload=payload,
            send_time=self.now,
        )
        self.transport.send(dst, msg)
        return msg

    def broadcast(
        self,
        payload: Any,
        *,
        kind: str = "token",
        include_self: bool = False,
    ) -> list[NetworkMessage]:
        sent = []
        for dst in range(self.n):
            if dst == self.pid and not include_self:
                continue
            sent.append(self.send(dst, payload, kind=kind))
        return sent

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        label: str = "",
    ) -> TimerHandle:
        delay = max(0.0, delay)
        loop = (
            self._loop if self._loop is not None
            else asyncio.get_running_loop()
        )
        handle = loop.call_later(delay, callback)
        return _LiveTimerHandle(handle, self.now + delay)

    # ------------------------------------------------------------------
    # Protocol attachment
    # ------------------------------------------------------------------
    def attach(self, protocol: Any) -> None:
        self.transport.attach(protocol)
