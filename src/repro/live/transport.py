"""Reconnecting full-mesh TCP transport for the live cluster.

Channel model: the simulator's network is *reliable* -- a message sent is
eventually delivered, surviving receiver downtime (buffered) and sender
downtime (still in flight).  The live transport reproduces that with:

- one outbound TCP link per peer, redialled whenever it drops (peer
  crashed, not yet started, transient error): at once, then the moment
  the peer's own HELLO arrives on the inbound side -- a peer that can
  dial out can accept -- and with capped exponential backoff only for as
  long as the peer stays silent;
- per-link sequence numbers with cumulative acknowledgements; an entry
  leaves the sender's outbox only when the receiver has acknowledged
  *processing* it, so anything in doubt is retransmitted on reconnect;
- a **durable** outbox (the ``outbox`` store of the sender's
  :class:`~repro.live.storage.FileStableStorage`, which journals the
  adds of each flush window as one chunk per link, and every ``ack``),
  so even a SIGKILLed sender retransmits its unacknowledged messages
  when it comes back -- without this, messages "in flight" at a sender
  crash would be lost, which the paper's channel assumption forbids;
- receiver-side dedup keyed by ``(sender pid, sender boot)``: retransmits
  of already-processed entries are acknowledged but not re-delivered.
  After a *receiver* crash its dedup state is gone, so unacknowledged
  messages are delivered again -- exactly the redelivery a restarted
  simulated process gets -- and protocol-level dedup ids absorb the
  overlap, just as they absorb duplicates under the simulator's
  ``duplicate_rate``.

Wire format: the outbox stores :class:`NetworkMessage` objects, and each
connection encodes them at pump time with its own
:class:`~repro.live.wire.WireEncoder` -- that is what lets consecutive
messages on a link share an FTVC delta chain, with a reconnect naturally
restarting the chain at a full clock.  Both read sides accept
:mod:`repro.live.wire` frames only: a frame that passes the CRC but is
not one (wrong first byte, unknown version, wrong type for the link,
undecodable body) is handled exactly like a frame that fails the CRC --
the connection is dropped with the dedup cursor and the outbox
untouched, and the sender redials and retransmits.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import sys
import time
from typing import Any, Callable

from repro.live import wire
from repro.live.codec import CodecError
from repro.live.framing import (
    OVERHEAD,
    BufferedFrameReader,
    FramingError,
    frame,
    write_frame,
)
from repro.live.outbox import Outbox
from repro.runtime.message import NetworkMessage

_BACKOFF_FLOOR = 0.05
_BACKOFF_CEIL = 2.0
_IDLE_POLL = 0.5
#: How often a sender re-checks a fault-blocked link for its heal time.
_BLOCKED_POLL = 0.05

#: Set REPRO_LIVE_DEBUG=1 to log connection and dedup decisions to stderr
#: (they end up in the node's log file).
_DEBUG = os.environ.get("REPRO_LIVE_DEBUG", "") not in ("", "0")


def _dbg(msg: str) -> None:
    if _DEBUG:
        print(f"[transport {time.time():.3f}] {msg}",
              file=sys.stderr, flush=True)


def _parse(data: bytes, expected: int, parse: Callable[[bytes], Any]) -> Any:
    """``parse(data)`` for a wire frame of type ``expected``.

    The CRC only proves the bytes arrived as sent; what was sent may
    still not be a frame this link carries.  Every way it can fail to be
    one raises :class:`FramingError`, so both read loops drop the
    connection on it the way they drop it on a CRC failure.
    """
    try:
        if not wire.is_binary(data) or wire.frame_type(data) != expected:
            raise FramingError(
                f"not a wire frame of type {expected}: {data[:8]!r}"
            )
        return parse(data)
    except CodecError as exc:
        raise FramingError(f"undecodable wire frame: {exc}") from None


class MeshTransport:
    """Mesh endpoint for one live process."""

    def __init__(
        self,
        pid: int,
        n: int,
        ports: list[int],
        *,
        host: str = "127.0.0.1",
        boot: int = 0,
        storage: Any | None = None,
        faults: Any | None = None,
    ) -> None:
        self.pid = pid
        self.n = n
        self.ports = ports
        self.host = host
        self.boot = boot
        self.storage = storage
        # NodeFaults (or None): consulted on the dial and write paths so
        # injected partitions / gray links / corruption hit this link the
        # way a real network would.
        self.faults = faults
        self._protocol: Any | None = None
        self._undelivered: list[NetworkMessage] = []
        self._self_pending: list[NetworkMessage] = []
        # Unacknowledged sends and the per-link seq counters.  With a
        # storage this is its journaled outbox -- entries reloaded from a
        # previous incarnation included -- so every add / ack below
        # rides the storage's flush window and barriers as a record.
        # Lazy (group-commit) durability is sound because a message
        # whose sending state was never made durable is condemned by the
        # sender's restart token anyway -- receivers discard it as
        # obsolete, so losing its outbox entry equals never sending it --
        # while any barrier that makes the sending state durable (log
        # flush, checkpoint, token) carries the pending records with it.
        self._outbox: Outbox = (
            storage.outbox if storage is not None else Outbox()
        )
        self._peers = [dst for dst in range(n) if dst != pid]
        self._wake: dict[int, asyncio.Event] = {}
        # Per peer: set by that peer's HELLO while our outbound link to
        # it is down (see _on_connection), consumed by _redial_wait.
        self._hello: dict[int, asyncio.Event] = {}
        self._linked: set[int] = set()    # peers whose outbound link is up
        # ``link_hook(what, peer)`` with what in {"link_up", "link_down"}:
        # called once per outbound-link transition, never per message.
        self.link_hook: Callable[[str, int], None] | None = None
        self._seen: dict[tuple[int, int], int] = {}
        self._max_written: dict[int, int] = {}
        self._server: asyncio.AbstractServer | None = None
        self._tasks: list[asyncio.Task] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._running = False
        self.sent_count = 0
        self.delivered_count = 0
        self.retransmit_count = 0
        self.deliver_errors = 0
        self.delivery_batches = 0     # grouped apply rounds (see _deliver_batch)
        self.delivery_batch_max = 0   # largest single batch applied
        self.bytes_sent = 0           # framed bytes written (data + acks)
        self.bytes_received = 0       # framed bytes read (data + acks)
        self.data_frames_sent = 0
        self.dial_attempts = 0        # open_connection calls (per process)
        self.redials_on_hello = 0     # of those, made because the peer said hello

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._running = True
        for dst in self._peers:
            self._wake[dst] = asyncio.Event()
            self._hello[dst] = asyncio.Event()
            if self._outbox.pending(dst):
                # Reloaded entries from a previous incarnation: the peer
                # loop retransmits them as soon as it connects.
                self._wake[dst].set()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.ports[self.pid]
        )
        for dst in self._peers:
            self._tasks.append(asyncio.create_task(self._peer_loop(dst)))

    async def stop(self) -> None:
        self._running = False
        for task in list(self._tasks) + list(self._conn_tasks):
            task.cancel()
        for task in list(self._tasks) + list(self._conn_tasks):
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._tasks.clear()
        self._conn_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def attach(self, protocol: Any) -> None:
        if self._protocol is not None:
            raise RuntimeError(
                f"transport {self.pid} already has a protocol"
            )
        self._protocol = protocol
        if not self._undelivered:
            return
        # Defer the drain one loop iteration so the caller can finish
        # constructing/recovering the protocol (on_start / on_restart)
        # before buffered messages hit it.  Outside a running loop --
        # synchronous tests -- deliver inline.
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self._drain_undelivered()
            return
        loop.call_soon(self._drain_undelivered)

    def _drain_undelivered(self) -> None:
        pending, self._undelivered = self._undelivered, []
        self._deliver_batch(pending)

    @property
    def unacked(self) -> int:
        """Outbox entries not yet acknowledged by their receivers."""
        return len(self._outbox)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst: int, msg: NetworkMessage) -> None:
        """Queue ``msg`` for ``dst``; delivery is asynchronous."""
        if dst == self.pid:
            # Self-sends from one synchronous burst coalesce into a
            # single deferred drain: one event-loop callback applies the
            # whole FIFO batch instead of one callback per message.
            self._self_pending.append(msg)
            if len(self._self_pending) == 1:
                asyncio.get_running_loop().call_soon(self._drain_self_sends)
            return
        self._outbox.add(dst, msg)
        self.sent_count += 1
        if dst in self._wake:
            self._wake[dst].set()

    # ------------------------------------------------------------------
    # Outbound side: dial, retransmit, consume acks
    # ------------------------------------------------------------------
    async def _peer_loop(self, dst: int) -> None:
        backoff = _BACKOFF_FLOOR
        while self._running:
            if self.faults is not None and self.faults.send_blocked(dst):
                # Injected black-hole: don't even dial.  Poll the local
                # schedule for the heal time; on heal, redial and let the
                # outbox retransmit everything unacknowledged.
                await asyncio.sleep(_BLOCKED_POLL)
                continue
            try:
                self.dial_attempts += 1
                reader, writer = await asyncio.open_connection(
                    self.host, self.ports[dst]
                )
            except OSError:
                if await self._redial_wait(dst, backoff):
                    self.redials_on_hello += 1
                    backoff = _BACKOFF_FLOOR
                else:
                    backoff = min(backoff * 2, _BACKOFF_CEIL)
                continue
            backoff = _BACKOFF_FLOOR
            self._set_linked(dst, True)
            _dbg(f"p{self.pid}(boot {self.boot}) connected -> p{dst}")
            ack_task = asyncio.create_task(self._ack_loop(dst, reader))
            try:
                hello = wire.hello_frame(self.pid, self.boot)
                await write_frame(writer, hello)
                self.bytes_sent += len(hello) + OVERHEAD
                await self._pump(dst, writer, ack_task)
            except (ConnectionError, OSError, FramingError):
                pass
            except asyncio.CancelledError:
                raise
            except Exception:   # noqa: BLE001 -- an unexpected error must
                import traceback    # surface in the log, then the link

                traceback.print_exc()   # redials like any other drop
            finally:
                self._set_linked(dst, False)
                ack_task.cancel()
                with contextlib.suppress(
                    asyncio.CancelledError, ConnectionError, OSError
                ):
                    await ack_task
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()

    async def _redial_wait(self, dst: int, backoff: float) -> bool:
        """Sleep out one failed dial; True if ``dst``'s hello cut it short.

        Blind redials keep capped exponential backoff with full jitter:
        the cadence stays bounded against a long-dead peer, and jitter
        keeps a whole cluster from probing a silent node in lockstep.
        An *announced* redial needs neither: the peer dialled us, so it
        is listening, and the n-1 survivors of a restart cost it one
        accept each, at once, against a listen backlog of 100.
        """
        try:
            await asyncio.wait_for(
                self._hello[dst].wait(),
                timeout=random.uniform(backoff / 2, backoff),
            )
        except asyncio.TimeoutError:
            return False
        self._hello[dst].clear()
        return True

    def _set_linked(self, dst: int, up: bool) -> None:
        if up:
            # Cleared on every successful connect: a flag can only have
            # been set during the outage this connect ends, so a stale
            # one never buys a free redial after the next drop.
            self._hello[dst].clear()
            self._linked.add(dst)
        else:
            self._linked.discard(dst)
        if self.link_hook is not None:
            self.link_hook("link_up" if up else "link_down", dst)

    async def _pump(
        self, dst: int, writer: asyncio.StreamWriter, ack_task: asyncio.Task
    ) -> None:
        """Write outbox entries in order until the connection dies.

        The encoder lives exactly as long as the connection: its delta
        chain and interning table match what the peer's decoder has seen,
        and a reconnect starts over with a full clock.  Ready entries are
        written as one batch with a single drain, so a burst of sends
        costs one syscall round, not one per message.
        """
        encoder = wire.WireEncoder()
        sent_marker = 0   # highest seq written on *this* connection
        while self._running:
            if ack_task.done():
                return   # read side saw the connection drop
            if self.faults is not None and self.faults.send_blocked(dst):
                # A partition window opened while connected: drop the
                # link so the peer loop parks until the heal, exactly as
                # if the network path had gone dark mid-connection.
                return
            pending = self._outbox.pending(dst)
            batch = [e for e in pending if e[0] > sent_marker]
            if not batch:
                self._wake[dst].clear()
                if any(e[0] > sent_marker for e in pending):
                    continue   # raced with send()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._wake[dst].wait(), timeout=_IDLE_POLL
                    )
                continue
            batch_bytes = 0
            for seq, msg in batch:
                framed = frame(encoder.data_frame(seq, msg))
                if self.faults is not None:
                    framed = self.faults.corrupt_frame(dst, framed)
                writer.write(framed)
                batch_bytes += len(framed)
                self.data_frames_sent += 1
                if seq <= self._max_written.get(dst, 0):
                    self.retransmit_count += 1
                else:
                    self._max_written[dst] = seq
                sent_marker = seq
            self.bytes_sent += batch_bytes
            if self.faults is not None:
                # Gray link: hold the batch in the kernel buffer for the
                # injected delay/jitter/bandwidth penalty before draining.
                penalty = self.faults.gray_penalty(dst, batch_bytes)
                if penalty > 0.0:
                    await asyncio.sleep(penalty)
            await writer.drain()

    async def _ack_loop(self, dst: int, reader: asyncio.StreamReader) -> None:
        # Acks are cumulative per link, so a batch of ack frames collapses
        # to its maximum: one outbox prune and one record per read batch.
        buffered = BufferedFrameReader(reader)
        while self._running:
            batch = await buffered.read_batch()
            if batch is None:
                return
            acked = -1
            for data in batch:
                self.bytes_received += len(data) + OVERHEAD
                acked = max(
                    acked, _parse(data, wire.FRAME_ACK, wire.parse_ack)
                )
            if acked >= 0:
                self._outbox.ack(dst, acked)

    # ------------------------------------------------------------------
    # Inbound side: accept, dedup, deliver, ack
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            buffered = BufferedFrameReader(reader)
            key: tuple[int, int] | None = None
            decoder = wire.WireDecoder()
            while self._running:
                batch = await buffered.read_batch()
                if batch is None:
                    return
                # Pass 1: decode every frame in the read batch --
                # duplicates included -- BEFORE touching the dedup
                # cursor.  The decoder's delta chain must advance in
                # lockstep with the sender's encoder, and a decode error
                # anywhere in the batch must drop the connection with the
                # cursor untouched so the retransmits get another chance.
                # (Advancing the cursor first would let a mid-batch
                # decode error permanently swallow the undelivered tail.)
                decoded: list[tuple[int, NetworkMessage]] = []
                for data in batch:
                    self.bytes_received += len(data) + OVERHEAD
                    if key is None:
                        # First frame on the link is the sender's hello.
                        key = _parse(data, wire.FRAME_HELLO, wire.parse_hello)
                        _dbg(f"p{self.pid} accepted connection from {key}")
                        if key[0] in self._hello and key[0] not in self._linked:
                            # The peer is up and dialling: wake our own
                            # outbound loop out of its backoff sleep.
                            self._hello[key[0]].set()
                        continue
                    seq, msg = _parse(
                        data, wire.FRAME_DATA, decoder.decode_data
                    )
                    if not isinstance(msg, NetworkMessage):
                        raise FramingError(
                            f"frame is not a NetworkMessage: {msg!r}"
                        )
                    decoded.append((seq, msg))
                if not decoded:
                    continue
                # Pass 2: advance the dedup cursor and collect the fresh
                # deliveries, then apply the whole batch in one tick
                # (FIFO, no per-message event-loop round trip).
                ready: list[NetworkMessage] = []
                for seq, msg in decoded:
                    if seq > self._seen.get(key, 0):
                        self._seen[key] = seq
                        ready.append(msg)
                    else:
                        _dbg(f"p{self.pid} dedup drop {key} seq={seq} "
                             f"(seen={self._seen.get(key)})")
                self._deliver_batch(ready)
                # Per-link seqs are strictly increasing on a connection,
                # and the sender prunes cumulatively -- so a batch of
                # data frames needs exactly one ack (the last seq), one
                # write and one drain, not one round per frame.
                ack = wire.ack_frame(decoded[-1][0])
                await write_frame(writer, ack)
                self.bytes_sent += len(ack) + OVERHEAD
        except (ConnectionError, OSError, FramingError):
            pass
        except asyncio.CancelledError:
            # Shutdown: finish quietly so loop teardown has nothing to
            # report about this handler.
            pass
        except Exception:   # noqa: BLE001 -- log it; the sender redials
            import traceback    # and retransmits anything unacked

            traceback.print_exc()
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    def _drain_self_sends(self) -> None:
        pending, self._self_pending = self._self_pending, []
        self._deliver_batch(pending)

    def _deliver_batch(self, msgs: list[NetworkMessage]) -> None:
        """Apply a batch of ready deliveries in FIFO order, one tick.

        This is the delivery-batching hot path: all app messages that
        arrived in one read batch (or one self-send burst) hit the
        protocol back to back inside a single event-loop callback,
        instead of costing a loop iteration each.
        """
        if not msgs:
            return
        self.delivery_batches += 1
        if len(msgs) > self.delivery_batch_max:
            self.delivery_batch_max = len(msgs)
        for msg in msgs:
            self._deliver(msg)

    def _deliver(self, msg: NetworkMessage) -> None:
        if self._protocol is None:
            self._undelivered.append(msg)
            return
        try:
            self._protocol.on_network_message(msg)
            self.delivered_count += 1
        except Exception:   # noqa: BLE001 -- a poisoned message must not
            self.deliver_errors += 1    # kill the transport loops
            import traceback

            traceback.print_exc()
