"""Sender-based message logging (Johnson & Zwaenepoel [11]).

Messages are logged at the *sender*; the receiver assigns each delivery a
receive sequence number (RSN) and returns it to the sender, which records
it next to the logged data and acknowledges.  A process may not *send* new
application messages while any delivered message's RSN is still
unacknowledged -- the protocol's "partially blocking" window (computation
continues; only output is held).  ``stats.blocked_time`` measures it.

Recovery is **not** asynchronous (Table 1 column 2 = "No"): the restarted
process broadcasts a RETRIEVE request and must collect the logged
``(data, RSN)`` pairs from every peer before it can resume.  It replays the
maximal RSN-consecutive fully-logged prefix (deterministically recreating
the original states) and takes any remaining retrieved messages as fresh
deliveries.  Because a process never sends while a received message is not
fully logged, no other process can depend on an unrecoverable state:
**orphans are impossible**, and nobody ever rolls back.

Per the paper's Table 1 we log sends to stable storage, which is what lets
the row claim tolerance of ``n`` concurrent failures; the original 1987
system kept sender logs in volatile memory and tolerated one failure at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.protocols.base import BaseRecoveryProcess
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind


@dataclass(frozen=True)
class JZMessage:
    payload: Any
    send_seq: tuple[int, int]        # (sender pid, per-sender sequence)


@dataclass(frozen=True)
class JZAck:
    """Receiver -> sender: 'your message <send_seq> got RSN <rsn>'."""

    send_seq: tuple[int, int]
    rsn: int


@dataclass(frozen=True)
class JZAckAck:
    """Sender -> receiver: 'RSN <rsn> is now logged; you may send again'."""

    rsn: int


@dataclass(frozen=True)
class JZRetrieve:
    """Restarted process -> everyone: resend what you logged for me."""

    requester: int
    rsn_floor: int                   # RSNs below this are in my checkpoint


@dataclass(frozen=True)
class JZRetrieveResponse:
    responder: int
    #: fully logged: (payload, send_seq, rsn, msg_id), sorted by rsn
    acked: tuple[tuple[Any, tuple[int, int], int, int], ...]
    #: logged data whose RSN never reached us: (payload, send_seq, msg_id)
    unacked: tuple[tuple[Any, tuple[int, int], int], ...]


@dataclass
class _SendLogRecord:
    dst: int
    payload: Any
    send_seq: tuple[int, int]
    msg_id: int                      # transport id of the original send
    rsn: int | None = None


class SenderBasedProcess(BaseRecoveryProcess):
    """Johnson-Zwaenepoel sender-based logging for one process."""

    name = "Sender-based (Johnson-Zwaenepoel)"
    requires_fifo = False
    asynchronous_recovery = False
    tolerates_concurrent_failures = True

    def __init__(self, env, app, config=None) -> None:
        super().__init__(env, app, config)
        # Stable: survives crashes (deliberately not cleared in on_crash).
        self._send_log: list[_SendLogRecord] = []
        # Volatile:
        self._send_seq = 0
        self._rsn = 0
        self._delivered: set[tuple[int, int]] = set()
        self._unconfirmed: set[int] = set()      # RSNs awaiting ack-ack
        self._outbox: list[tuple[int, JZMessage]] = []
        self._blocked_since: float | None = None
        # Recovery session state:
        self._recovering = False
        self._responses: dict[int, JZRetrieveResponse] = {}
        self._buffered: list[NetworkMessage] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        ctx = self.executor.bootstrap()
        for send in ctx.sends:
            self._transmit_new(send.dst, send.payload)
        self.emit_outputs(ctx.outputs, replay=False)
        self.take_checkpoint()
        # Only checkpoints are periodic; the receiver log is deliberately
        # volatile between checkpoints (that is the protocol's premise).
        self._periodic_enabled = True
        self._arm(self._periodic[0])

    def on_network_message(self, msg: NetworkMessage) -> None:
        payload = msg.payload
        if isinstance(payload, JZRetrieve):
            self._on_retrieve(payload)      # answered even while recovering
            return
        if self._recovering:
            if isinstance(payload, JZRetrieveResponse):
                self._on_retrieve_response(payload)
            else:
                self._buffered.append(msg)
            return
        if isinstance(payload, JZMessage):
            self._on_app_message(msg)
        elif isinstance(payload, JZAck):
            self._on_ack(payload)
        elif isinstance(payload, JZAckAck):
            self._on_ackack(payload)
        elif isinstance(payload, JZRetrieveResponse):
            pass   # stale response from an aborted session
        else:
            raise ValueError(f"unexpected payload {payload!r}")

    def on_crash(self) -> None:
        self.storage.on_crash()
        self._delivered.clear()
        self._unconfirmed.clear()
        self._outbox.clear()
        self._blocked_since = None
        self._recovering = False
        self._responses.clear()
        self._buffered.clear()

    def on_restart(self) -> None:
        self.stats.restarts += 1
        ckpt = self.storage.checkpoints.latest()
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.RESTORE,
                self.pid,
                ckpt_uid=ckpt.snapshot["uid"],
                reason="restart",
            )
        self.executor.restore(ckpt.snapshot)
        self._send_seq = ckpt.extras["send_seq"]
        self._rsn = ckpt.extras["rsn"]
        self._delivered = set(ckpt.extras["delivered"])
        self._outbox = list(ckpt.extras["outbox"])
        self._unconfirmed = set()
        # Checkpointing flushes the receiver log, so there is never a
        # replayable local suffix: everything past the checkpoint must be
        # retrieved from the senders.
        assert self.storage.log.stable_length == ckpt.log_position
        if self.n == 1:
            self._finish_recovery()
            return
        self._recovering = True
        self._responses = {}
        request = JZRetrieve(requester=self.pid, rsn_floor=self._rsn)
        self.env.broadcast(request, kind="control")
        self.stats.control_sent += self.n - 1

    # ------------------------------------------------------------------
    # Normal operation
    # ------------------------------------------------------------------
    def _on_app_message(self, msg: NetworkMessage) -> None:
        envelope: JZMessage = msg.payload
        if envelope.send_seq in self._delivered:
            self.stats.duplicates_discarded += 1
            if self.trace is not None:
                self.trace.record(
                    self.env.now,
                    EventKind.DISCARD,
                    self.pid,
                    msg_id=msg.msg_id,
                    reason="duplicate",
                )
            return
        rsn = self._rsn
        self._rsn += 1
        self._delivered.add(envelope.send_seq)
        self.storage.log.append(
            msg.msg_id, msg.src, envelope.payload,
            meta=(envelope.send_seq, rsn),
        )
        self._unconfirmed.add(rsn)
        self.env.send(msg.src, JZAck(envelope.send_seq, rsn), kind="control")
        self.stats.control_sent += 1
        self.stats.app_delivered += 1
        ctx = self.executor.execute(envelope.payload, msg_id=msg.msg_id)
        for send in ctx.sends:
            self._queue_send(send.dst, send.payload)
        self.emit_outputs(ctx.outputs, replay=False)

    def _on_ack(self, ack: JZAck) -> None:
        # Record the RSN next to the logged data, then acknowledge back to
        # the receiver so it may unblock its sends.
        for record in self._send_log:
            if record.send_seq == ack.send_seq:
                record.rsn = ack.rsn
                self.env.send(record.dst, JZAckAck(ack.rsn), kind="control")
                self.stats.control_sent += 1
                return

    def _on_ackack(self, ackack: JZAckAck) -> None:
        self._unconfirmed.discard(ackack.rsn)
        if not self._unconfirmed:
            self._drain_outbox()

    def _queue_send(self, dst: int, payload: Any) -> None:
        """The partial-blocking rule: hold sends while any RSN is
        unconfirmed."""
        envelope = JZMessage(payload=payload, send_seq=(self.pid, self._send_seq))
        self._send_seq += 1
        if self._unconfirmed:
            if self._blocked_since is None:
                self._blocked_since = self.env.now
            self._outbox.append((dst, envelope))
        else:
            self._transmit(dst, envelope)

    def _drain_outbox(self) -> None:
        if self._blocked_since is not None:
            self.stats.blocked_time += self.env.now - self._blocked_since
            self._blocked_since = None
        outbox, self._outbox = self._outbox, []
        for dst, envelope in outbox:
            self._transmit(dst, envelope)

    def _transmit_new(self, dst: int, payload: Any) -> None:
        envelope = JZMessage(payload=payload, send_seq=(self.pid, self._send_seq))
        self._send_seq += 1
        self._transmit(dst, envelope)

    def _transmit(self, dst: int, envelope: JZMessage) -> None:
        sent = self.env.send(dst, envelope, kind="app")
        # The stable send log is written at transmission time, never for
        # queued-but-unsent messages (a crashed outbox must not leak
        # messages from states nobody can recover).
        self._send_log.append(
            _SendLogRecord(dst=dst, payload=envelope.payload,
                           send_seq=envelope.send_seq, msg_id=sent.msg_id)
        )
        self.storage.sync_writes += 1
        self.stats.sync_log_writes += 1
        self.stats.app_sent += 1
        self.stats.piggyback_entries += 1        # O(1): just the send seq
        self.stats.piggyback_bits += 64
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.SEND,
                self.pid,
                msg_id=sent.msg_id,
                dst=dst,
                uid=self.executor.current_uid,
                dedup=envelope.send_seq,
            )

    # ------------------------------------------------------------------
    # Recovery session
    # ------------------------------------------------------------------
    def _on_retrieve(self, request: JZRetrieve) -> None:
        acked = []
        unacked = []
        for record in self._send_log:
            if record.dst != request.requester:
                continue
            if record.rsn is not None:
                if record.rsn >= request.rsn_floor:
                    acked.append(
                        (record.payload, record.send_seq, record.rsn,
                         record.msg_id)
                    )
            else:
                unacked.append(
                    (record.payload, record.send_seq, record.msg_id)
                )
        acked.sort(key=lambda item: item[2])
        response = JZRetrieveResponse(
            responder=self.pid, acked=tuple(acked), unacked=tuple(unacked)
        )
        self.env.send(request.requester, response, kind="control")
        self.stats.control_sent += 1

    def _on_retrieve_response(self, response: JZRetrieveResponse) -> None:
        self._responses[response.responder] = response
        if len(self._responses) == self.n - 1:
            self._complete_recovery()

    def _complete_recovery(self) -> None:
        acked: list[tuple[Any, tuple[int, int], int, int]] = []
        fresh: list[tuple[Any, tuple[int, int], int]] = []
        for response in self._responses.values():
            acked.extend(response.acked)
            fresh.extend(response.unacked)
        acked.sort(key=lambda item: item[2])

        # Replay the maximal RSN-consecutive fully-logged prefix: these
        # deliveries deterministically recreate the original states, so
        # they get their original uids back (consecutive serials after the
        # checkpoint state, same incarnation tag).
        ckpt_uid = self.executor.current_uid
        expected = self._rsn
        replayed = 0
        remainder: list[tuple[Any, tuple[int, int], int]] = []
        for payload, send_seq, rsn, msg_id in acked:
            if send_seq in self._delivered:
                continue       # already inside the checkpoint
            if rsn == expected and not remainder:
                uid = (self.pid, ckpt_uid[1], ckpt_uid[2] + replayed + 1)
                self._delivered.add(send_seq)
                self._rsn += 1
                self.storage.log.append(msg_id, send_seq[0], payload,
                                        meta=(send_seq, rsn))
                self.stats.replayed += 1
                ctx = self.executor.execute(payload, msg_id=msg_id,
                                            replay=True, uid=uid)
                for send in ctx.sends:
                    # Regenerated sends are retransmitted: receivers
                    # deduplicate by send_seq, and sends that were still
                    # blocked at the crash are transmitted here for the
                    # first time.
                    envelope = JZMessage(payload=send.payload,
                                         send_seq=(self.pid, self._send_seq))
                    self._send_seq += 1
                    self._transmit(send.dst, envelope)
                self.emit_outputs(ctx.outputs, replay=True)
                replayed += 1
                expected += 1
            else:
                remainder.append((payload, send_seq, msg_id))
        fresh = remainder + fresh

        restored_uid = self.executor.begin_incarnation(
            self.env.crash_count, self.env.crash_count
        )
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.RESTART,
                self.pid,
                restored_uid=restored_uid,
                new_uid=self.executor.current_uid,
                replayed=replayed,
            )
        self._finish_recovery()
        # Beyond-the-prefix messages become fresh deliveries with new RSNs.
        for payload, send_seq, msg_id in fresh:
            if send_seq not in self._delivered:
                self._redeliver_fresh(payload, send_seq, msg_id)

    def _finish_recovery(self) -> None:
        self._recovering = False
        self._responses = {}
        self.take_checkpoint()
        # Blocked sends preserved in the checkpoint go out now.
        self._drain_outbox()
        buffered, self._buffered = self._buffered, []
        for msg in buffered:
            self.on_network_message(msg)

    def _redeliver_fresh(
        self, payload: Any, send_seq: tuple[int, int], msg_id: int
    ) -> None:
        """Deliver a retrieved-but-not-fully-logged message as new."""
        rsn = self._rsn
        self._rsn += 1
        self._delivered.add(send_seq)
        self.storage.log.append(msg_id, send_seq[0], payload,
                                meta=(send_seq, rsn))
        self._unconfirmed.add(rsn)
        self.env.send(send_seq[0], JZAck(send_seq, rsn), kind="control")
        self.stats.control_sent += 1
        self.stats.app_delivered += 1
        ctx = self.executor.execute(payload, msg_id=msg_id)
        for send in ctx.sends:
            self._queue_send(send.dst, send.payload)
        self.emit_outputs(ctx.outputs, replay=False)

    # ------------------------------------------------------------------
    def checkpoint_extras(self) -> dict[str, Any]:
        return {
            "send_seq": self._send_seq,
            "rsn": self._rsn,
            "delivered": set(self._delivered),
            "outbox": list(self._outbox),
        }

    def piggyback_entry_count(self) -> int:
        return 1
