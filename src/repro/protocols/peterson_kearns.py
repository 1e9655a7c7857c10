"""Rollback based on vector time, after Peterson & Kearns [19].

Messages piggyback a plain Mattern vector clock (``n`` timestamps) plus a
scalar *epoch*.  After a failure the restarted process replays its stable
log, advances the epoch, broadcasts a recovery token carrying the restored
vector time, and then **waits for acknowledgements from every peer before
resuming computation** -- recovery is synchronous (Table 1 column 2 =
"No"), and the wait shows up in ``stats.blocked_time``.

Each peer, on the token: if its clock shows dependence on the failed
process beyond the restored timestamp it rolls back (once), adopts the new
epoch, and acknowledges.  In-flight messages from the old epoch are judged
against the recorded cutoff (obsolete iff they depend on the failed
process beyond the restoration point); messages from a *future* epoch are
postponed until the token arrives.

Because the protocol distinguishes pre- from post-recovery states with a
single scalar epoch rather than per-process version numbers, overlapping
recoveries are ambiguous: it "can not handle multiple failures" (paper
Section 2) -- concurrent crashes are outside its contract, exactly as
Table 1 records (1 concurrent failure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.clocks.vector import VectorClock
from repro.protocols.base import BaseRecoveryProcess
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind


@dataclass(frozen=True)
class PKEnvelope:
    payload: Any
    clock: VectorClock
    epoch: int


@dataclass(frozen=True)
class PKToken:
    origin: int
    epoch: int                       # the epoch this recovery begins
    restored_ts: int                 # origin's own timestamp at restoration


@dataclass(frozen=True)
class PKAck:
    epoch: int
    sender: int


class PetersonKearnsProcess(BaseRecoveryProcess):
    """One Peterson-Kearns process."""

    name = "Peterson-Kearns"
    requires_fifo = True
    asynchronous_recovery = False
    tolerates_concurrent_failures = False

    def __init__(self, env, app, config=None) -> None:
        super().__init__(env, app, config)
        self.clock = VectorClock.initial(self.pid, self.n)
        self.epoch = 0
        # epoch -> (failed pid, restored timestamp): the cutoff that ended it
        self.cutoffs: dict[int, tuple[int, int]] = {}
        # Synchronous-recovery session state (when we are the failed one):
        self._awaiting_acks: set[int] | None = None
        self._buffered: list[NetworkMessage] = []
        self._blocked_since: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_network_message(self, msg: NetworkMessage) -> None:
        payload = msg.payload
        if isinstance(payload, PKToken):
            self._receive_token(payload)
            return
        if isinstance(payload, PKAck):
            self._receive_ack(payload)
            return
        if self._awaiting_acks is not None:
            # We are mid-recovery: application traffic waits.
            self._buffered.append(msg)
            return
        self._receive_app(msg)

    def on_crash(self) -> None:
        super().on_crash()
        self._buffered.clear()
        self._awaiting_acks = None
        self._blocked_since = None

    def on_restart(self) -> None:
        self.stats.restarts += 1
        ckpt = self.storage.checkpoints.latest()
        self._restore(ckpt, "restart")
        replayed = self._replay_log(ckpt.log_position)
        restored_ts = self.clock[self.pid]
        new_epoch = self.epoch + 1
        token = PKToken(
            origin=self.pid, epoch=new_epoch, restored_ts=restored_ts
        )
        self.storage.log_token(token)
        self.cutoffs[self.epoch] = (self.pid, restored_ts)
        self.epoch = new_epoch
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.TOKEN_SEND, self.pid,
                version=new_epoch, timestamp=restored_ts,
            )
        self._restarted(new_epoch, replayed)
        self.take_checkpoint()
        if self.n == 1:
            return
        # The synchronous part: broadcast and wait for everyone.
        self.env.broadcast(token, kind="token")
        self.stats.tokens_sent += self.n - 1
        self.stats.control_sent += self.n - 1
        self._awaiting_acks = set(range(self.n)) - {self.pid}
        self._blocked_since = self.env.now

    # ------------------------------------------------------------------
    # Receive message
    # ------------------------------------------------------------------
    def _is_obsolete(self, envelope: PKEnvelope) -> bool:
        """An old-epoch message is obsolete iff it depends on a failed
        process beyond the restoration point of any epoch it missed."""
        for epoch in range(envelope.epoch, self.epoch):
            cutoff = self.cutoffs.get(epoch)
            if cutoff is None:
                continue
            failed, restored_ts = cutoff
            if envelope.clock[failed] > restored_ts:
                return True
        return False

    def _receive_app(self, msg: NetworkMessage) -> None:
        envelope: PKEnvelope = msg.payload
        if envelope.epoch > self.epoch:
            # From a recovery we have not heard about yet.
            self._postpone(msg, [("epoch", envelope.epoch)])
            return
        if self._is_obsolete(envelope):
            self._discard(msg, "obsolete")
            return
        self._deliver(msg)

    def _deliver(self, msg: NetworkMessage) -> None:
        envelope: PKEnvelope = msg.payload
        self.clock = self.clock.merge(envelope.clock).tick(self.pid)
        self.stats.app_delivered += 1
        ctx = self.executor.execute(envelope.payload, msg_id=msg.msg_id)
        self.storage.log.append(
            msg.msg_id, msg.src, envelope.payload,
            meta=(envelope.clock, self.executor.current_uid),
        )
        self._finish_step(ctx)

    def _replay_entry(self, entry) -> None:
        clock, uid = entry.meta
        self.clock = self.clock.merge(clock).tick(self.pid)
        self._replay(entry.payload, entry.msg_id, uid)

    def _send_app(self, dst: int, payload: Any, *, transmit: bool) -> None:
        envelope = PKEnvelope(payload=payload, clock=self.clock,
                              epoch=self.epoch)
        if transmit:
            sent = self.env.send(dst, envelope, kind="app")
            self.stats.app_sent += 1
            self.stats.piggyback_entries += len(self.clock) + 1
            self.stats.piggyback_bits += (len(self.clock) + 1) * 32
            if self.trace is not None:
                self.trace.record(
                    self.env.now, EventKind.SEND, self.pid,
                    msg_id=sent.msg_id, dst=dst,
                    uid=self.executor.current_uid,
                )
        self.clock = self.clock.tick(self.pid)

    # ------------------------------------------------------------------
    # Tokens / acks
    # ------------------------------------------------------------------
    def _receive_token(self, token: PKToken) -> None:
        self.stats.tokens_received += 1
        self.storage.log_token(token)
        self.stats.sync_log_writes += 1
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.TOKEN_DELIVER, self.pid,
                origin=token.origin, version=token.epoch,
                timestamp=token.restored_ts,
            )
        if self.clock[token.origin] > token.restored_ts:
            self._rollback(token)
        self.cutoffs[token.epoch - 1] = (token.origin, token.restored_ts)
        self.epoch = max(self.epoch, token.epoch)
        self.env.send(token.origin, PKAck(epoch=token.epoch, sender=self.pid),
                       kind="control")
        self.stats.control_sent += 1
        self._release_held()

    def _receive_ack(self, ack: PKAck) -> None:
        if self._awaiting_acks is None or ack.epoch != self.epoch:
            return
        self._awaiting_acks.discard(ack.sender)
        if not self._awaiting_acks:
            self._awaiting_acks = None
            if self._blocked_since is not None:
                self.stats.blocked_time += self.env.now - self._blocked_since
                self._blocked_since = None
            buffered, self._buffered = self._buffered, []
            for msg in buffered:
                self.on_network_message(msg)

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------
    def _rollback(self, token: PKToken) -> None:
        self.flush_log()
        j = token.origin
        ckpt = self.storage.checkpoints.latest_satisfying(
            lambda c: c.extras["clock"][j] <= token.restored_ts
        )
        if ckpt is None:
            raise RuntimeError(
                f"P{self.pid}: no surviving checkpoint for {token!r}"
            )
        self._restore(ckpt, "rollback")
        self.storage.checkpoints.discard_after(ckpt)
        replayed = self._replay_log(
            ckpt.log_position,
            lambda entry: entry.meta[0][j] > token.restored_ts,
        )
        discarded = self.storage.log.truncate(ckpt.log_position + replayed)
        self.clock = self.clock.tick(self.pid)
        self._rolled_back(
            token.origin, token.epoch, token.restored_ts,
            replayed=replayed, discarded=discarded,
        )

    # ------------------------------------------------------------------
    def checkpoint_extras(self) -> dict[str, Any]:
        return {
            "clock": self.clock,
            "epoch": self.epoch,
            "cutoffs": dict(self.cutoffs),
        }

    def _restore_checkpoint(self, ckpt) -> None:
        super()._restore_checkpoint(ckpt)
        self.clock = ckpt.extras["clock"]
        self.epoch = ckpt.extras["epoch"]
        self.cutoffs = dict(ckpt.extras["cutoffs"])
        # Cutoffs are durable facts: reinstate those learned after the
        # checkpoint from the synchronously-logged tokens.
        for token in self.storage.tokens:
            self.cutoffs[token.epoch - 1] = (token.origin, token.restored_ts)
            self.epoch = max(self.epoch, token.epoch)

    def piggyback_entry_count(self) -> int:
        return self.n + 1
