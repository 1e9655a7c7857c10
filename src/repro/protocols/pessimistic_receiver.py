"""Pessimistic receiver-based message logging (paper refs [3, 20]).

Every received message is synchronously forced to stable storage before the
application handler runs.  Consequently nothing is ever lost, no state can
become an orphan, and recovery is trivially local: restore the last
checkpoint and replay the entire stable log.

This is the Section 1 strawman the optimistic protocols improve on: its
failure-free cost is one synchronous stable write per received message
(``stats.sync_log_writes``), which the overhead benchmarks compare against
the Damani-Garg protocol's asynchronous flushes.

Properties measured for the Table 1 context rows: no ordering assumption,
local (asynchronous) recovery, zero rollbacks, no piggybacked clock,
arbitrary concurrent failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.protocols.base import BaseRecoveryProcess
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind


@dataclass(frozen=True)
class _Envelope:
    """Wire format: payload plus a dedup id (needed because the transport
    may redeliver retained messages to a restarted process)."""

    payload: Any
    dedup_id: tuple[int, int]


class PessimisticReceiverProcess(BaseRecoveryProcess):
    """Synchronous receiver-side logging."""

    name = "Pessimistic receiver log"
    requires_fifo = False
    asynchronous_recovery = True
    tolerates_concurrent_failures = True

    def __init__(self, env, app, config=None) -> None:
        super().__init__(env, app, config)
        self._send_seq = 0
        self._delivered: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def on_network_message(self, msg: NetworkMessage) -> None:
        if msg.kind != "app":
            raise ValueError(f"unexpected message kind {msg.kind!r}")
        envelope: _Envelope = msg.payload
        if envelope.dedup_id in self._delivered:
            self._discard(msg, "duplicate")
            return
        self._delivered.add(envelope.dedup_id)
        self.stats.app_delivered += 1
        ctx = self.executor.execute(envelope.payload, msg_id=msg.msg_id)
        # Pessimism: the log is forced before anything escapes this event.
        # Receive, execute and flush form one atomic simulator event, so
        # logging after execution (to capture the created state's uid for
        # replay) is unobservable to the rest of the system.
        self.storage.log.append(
            msg.msg_id,
            msg.src,
            envelope.payload,
            meta=(envelope.dedup_id, self.executor.current_uid),
        )
        self.storage.log.flush()
        self.stats.sync_log_writes += 1
        self.storage.sync_writes += 1
        self._finish_step(ctx)

    def on_crash(self) -> None:
        lost = self.storage.on_crash()
        assert lost == 0, "pessimistic logging must never lose log entries"
        self._delivered.clear()

    def on_restart(self) -> None:
        """Purely local recovery: checkpoint + full log replay."""
        self.stats.restarts += 1
        ckpt = self.storage.checkpoints.latest()
        self._restore(ckpt, "restart")
        replayed = self._replay_log(ckpt.log_position)
        self._restarted(self.env.crash_count, replayed)
        self.take_checkpoint()

    def _replay_entry(self, entry) -> None:
        dedup_id, uid = entry.meta
        self._delivered.add(dedup_id)
        self._replay(entry.payload, entry.msg_id, uid)

    # ------------------------------------------------------------------
    def checkpoint_extras(self) -> dict[str, Any]:
        return {
            "send_seq": self._send_seq,
            "delivered": set(self._delivered),
        }

    def _restore_checkpoint(self, ckpt) -> None:
        super()._restore_checkpoint(ckpt)
        self._send_seq = ckpt.extras["send_seq"]
        self._delivered = set(ckpt.extras["delivered"])

    def _send_app(self, dst: int, payload: Any, *, transmit: bool) -> None:
        envelope = _Envelope(payload=payload, dedup_id=(self.pid, self._send_seq))
        self._send_seq += 1
        if transmit:
            sent = self.env.send(dst, envelope, kind="app")
            self.stats.app_sent += 1
            # No clock is piggybacked; only the O(1) dedup id.
            self.stats.piggyback_entries += 1
            self.stats.piggyback_bits += 64
            if self.trace is not None:
                self.trace.record(
                    self.env.now,
                    EventKind.SEND,
                    self.pid,
                    msg_id=sent.msg_id,
                    dst=dst,
                    uid=self.executor.current_uid,
                    dedup=envelope.dedup_id,
                )

    def piggyback_entry_count(self) -> int:
        return 1
