"""Coordinated (consistent) checkpointing with global rollback.

The Section 1 motivation baseline (Koo-Toueg [13] / Chandy-Lamport [5]
style): processes synchronize their checkpoints into consistent global
snapshots, and after a failure *everyone* rolls back to the last committed
snapshot.  No message logging, so recovery loses every state since the
snapshot -- the "may not restore the maximum recoverable state" critique
the optimistic protocols answer, and the harness grades it accordingly
(safety holds; maximal recovery deliberately does not).

Mechanics (simulation-faithful, order-free):

- a coordinator (pid 0) runs numbered snapshot rounds on the checkpoint
  interval; on ``SNAPSHOT(r)`` every process saves a tentative checkpoint
  and acks; when all acks arrive the coordinator broadcasts ``COMMIT(r)``;
- every application message piggybacks the sender's current round and
  recovery epoch (O(1)); a message whose sender round precedes the
  receiver's round is *channel state*: it is delivered normally and also
  recorded into the pending snapshot(s) it crosses, making each snapshot a
  consistent cut including in-flight messages;
- after a failure the failed process restores the last committed snapshot
  and broadcasts ``RECOVER(r*, epoch+1)``; every process rolls back to its
  round-``r*`` checkpoint, re-delivers the recorded channel state, and
  resumes in the new epoch.  Messages from an overtaken epoch are accepted
  only if their sender round precedes the restored cut (they were in
  flight across it) and discarded otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.protocols.base import BaseRecoveryProcess
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind


@dataclass(frozen=True)
class CoEnvelope:
    payload: Any
    round: int
    epoch: int
    dedup_id: tuple[int, int]


@dataclass(frozen=True)
class CoSnapshot:
    round: int
    epoch: int


@dataclass(frozen=True)
class CoSnapAck:
    round: int
    sender: int


@dataclass(frozen=True)
class CoCommit:
    round: int
    epoch: int


@dataclass(frozen=True)
class CoRecover:
    round: int          # committed snapshot to restore
    epoch: int          # the epoch recovery begins


class CoordinatedProcess(BaseRecoveryProcess):
    """One process under coordinated checkpointing."""

    name = "Coordinated checkpointing"
    requires_fifo = False
    asynchronous_recovery = True
    tolerates_concurrent_failures = True
    COORDINATOR = 0

    def __init__(self, env, app, config=None) -> None:
        super().__init__(env, app, config)
        self.round = 0
        self.epoch = 0
        self._send_seq = 0
        self._delivered: set[tuple[int, int]] = set()
        #: round -> messages crossing that snapshot's cut (stable: lives in
        #: the checkpoint extras of that round)
        self._channel_logs: dict[int, list[CoEnvelope]] = {}
        #: epoch transition -> the cut round it restored
        self._recovery_cuts: dict[int, int] = {}
        self._acked_rounds: set[int] = set()
        # Coordinator-only:
        self._pending_round: int | None = None
        self._acks: set[int] = set()
        self._rounds_enabled = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        # Bootstrap sends happen before snapshot 0 exists: tag them with
        # round -1 so they count as in-flight across the round-0 cut (a
        # recovery to round 0 must deliver, not discard, them).
        self.round = -1
        self._finish_step(self.executor.bootstrap())
        self.round = 0
        self._take_snapshot(0)
        self.storage.put("committed_round", 0)
        self.storage.put("epoch", 0)
        if self.pid == self.COORDINATOR:
            self._schedule_snapshot_round()

    def _schedule_snapshot_round(self) -> None:
        self.env.schedule_after(
            self.config.checkpoint_interval,
            self._initiate_round,
            label="snapshot-round",
        )

    def _initiate_round(self) -> None:
        if not self._rounds_enabled:
            return
        if self.env.alive and self._pending_round is None:
            next_round = self.storage.get("next_round", 1)
            self.storage.put("next_round", next_round + 1)
            self._pending_round = next_round
            self._acks = set()
            self.env.broadcast(
                CoSnapshot(next_round, self.epoch), kind="control"
            )
            self.stats.control_sent += self.n - 1
            self._on_snapshot(CoSnapshot(next_round, self.epoch))
        self._schedule_snapshot_round()

    def halt_periodic_tasks(self) -> None:
        super().halt_periodic_tasks()
        self._rounds_enabled = False

    def start_periodic_tasks(self) -> None:   # pragma: no cover
        raise RuntimeError(
            "CoordinatedProcess drives its own checkpoint rounds"
        )

    def on_network_message(self, msg: NetworkMessage) -> None:
        payload = msg.payload
        if isinstance(payload, CoSnapshot):
            self._on_snapshot(payload)
        elif isinstance(payload, CoSnapAck):
            self._on_snap_ack(payload)
        elif isinstance(payload, CoCommit):
            self._on_commit(payload)
        elif isinstance(payload, CoRecover):
            self._on_recover(payload)
        elif isinstance(payload, CoEnvelope):
            self._receive_app(msg)
        else:
            raise ValueError(f"unexpected payload {payload!r}")

    def on_crash(self) -> None:
        super().on_crash()
        self._pending_round = None
        self._acks = set()
        self._acked_rounds = set()

    def on_restart(self) -> None:
        self.stats.restarts += 1
        committed = self.storage.get("committed_round", 0)
        epoch = self.storage.get("epoch", 0) + 1
        ckpt = self._checkpoint_for_round(committed)
        self._restore_to(ckpt, epoch, "restart")
        self._restarted(epoch, 0)
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.TOKEN_SEND, self.pid,
                version=epoch, timestamp=committed,
            )
        self.env.broadcast(CoRecover(committed, epoch), kind="token")
        self.stats.tokens_sent += self.n - 1
        self.stats.control_sent += self.n - 1
        self._redeliver_channel_state(ckpt)

    # ------------------------------------------------------------------
    # Snapshot rounds
    # ------------------------------------------------------------------
    def _take_snapshot(self, round_number: int) -> None:
        self._channel_logs.setdefault(round_number, [])
        ckpt = self.storage.checkpoints.take(
            self.env.now,
            self.executor.snapshot(),
            self.storage.log.stable_length,
            extras={
                "round": round_number,
                "epoch": self.epoch,
                "send_seq": self._send_seq,
                "delivered": set(self._delivered),
                "recovery_cuts": dict(self._recovery_cuts),
                "channel_log": self._channel_logs[round_number],
            },
        )
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.CHECKPOINT, self.pid,
                ckpt_id=ckpt.ckpt_id,
                uid=self.executor.current_uid,
                log_position=ckpt.log_position,
            )

    def _advance_to_round(self, round_number: int) -> None:
        """Join snapshot ``round_number`` (taking the tentative checkpoint)
        if we have not already -- triggered by the coordinator's SNAPSHOT
        or, Chandy-Lamport style, by the first message that proves the
        round started (it must not be delivered into a pre-cut state)."""
        if round_number <= self.round:
            return
        self.round = round_number
        self._take_snapshot(round_number)

    def _on_snapshot(self, snap: CoSnapshot) -> None:
        if snap.epoch != self.epoch or snap.round < self.round:
            return
        already_acked = snap.round in self._acked_rounds
        self._advance_to_round(snap.round)
        if already_acked:
            return
        self._acked_rounds.add(snap.round)
        if self.pid == self.COORDINATOR:
            self._on_snap_ack(CoSnapAck(snap.round, self.pid))
        else:
            self.env.send(
                self.COORDINATOR, CoSnapAck(snap.round, self.pid),
                kind="control",
            )
            self.stats.control_sent += 1

    def _on_snap_ack(self, ack: CoSnapAck) -> None:
        if self._pending_round is None or ack.round != self._pending_round:
            return
        self._acks.add(ack.sender)
        if len(self._acks) == self.n:
            committed = self._pending_round
            self._pending_round = None
            commit = CoCommit(committed, self.epoch)
            self.env.broadcast(commit, kind="control")
            self.stats.control_sent += self.n - 1
            self._on_commit(commit)

    def _on_commit(self, commit: CoCommit) -> None:
        if commit.epoch != self.epoch:
            return   # stale commit from before a recovery we already did
        current = self.storage.get("committed_round", 0)
        if commit.round > current:
            self.storage.put("committed_round", commit.round)

    def _checkpoint_for_round(self, round_number: int):
        found = self.storage.checkpoints.latest_satisfying(
            lambda c: c.extras["round"] == round_number
        )
        if found is None:
            raise RuntimeError(
                f"P{self.pid}: no checkpoint for round {round_number}"
            )
        return found

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _on_recover(self, recover: CoRecover) -> None:
        self.stats.tokens_received += 1
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.TOKEN_DELIVER, self.pid,
                origin=-1, version=recover.epoch, timestamp=recover.round,
            )
        if recover.epoch <= self.epoch:
            return     # already past this recovery
        ckpt = self._checkpoint_for_round(recover.round)
        self._restore_to(ckpt, recover.epoch, "rollback")
        self._rolled_back(-1, recover.epoch, recover.round)
        self._redeliver_channel_state(ckpt)

    def _restore_checkpoint(self, ckpt) -> None:
        super()._restore_checkpoint(ckpt)
        self._send_seq = ckpt.extras["send_seq"]
        self._delivered = set(ckpt.extras["delivered"])
        self._recovery_cuts = dict(ckpt.extras["recovery_cuts"])
        self.round = ckpt.extras["round"]

    def _restore_to(self, ckpt, new_epoch: int, reason: str) -> None:
        """Restore the cut's checkpoint and begin epoch ``new_epoch``."""
        old_epoch = self.epoch
        self._restore(ckpt, reason)
        self.storage.checkpoints.discard_after(ckpt)
        for epoch in range(ckpt.extras["epoch"], new_epoch):
            self._recovery_cuts.setdefault(epoch, self.round)
        self._recovery_cuts[old_epoch] = self.round
        self.epoch = new_epoch
        self.storage.put("epoch", new_epoch)
        self.storage.put("committed_round", self.round)
        self._pending_round = None
        self._acks = set()
        self._acked_rounds = set()
        # Channel logs live inside the (stable) checkpoints; rebuild the
        # in-memory view from what survived the restore.
        self._channel_logs = {
            c.extras["round"]: c.extras["channel_log"]
            for c in self.storage.checkpoints
        }

    def _redeliver_channel_state(self, ckpt) -> None:
        """In-flight-at-the-cut messages recorded in the snapshot come back
        as fresh deliveries, completing the consistent global state."""
        for envelope, msg_id in list(ckpt.extras["channel_log"]):
            if envelope.dedup_id not in self._delivered:
                self._deliver_envelope(
                    envelope, msg_id=msg_id, src=envelope.dedup_id[0]
                )

    # ------------------------------------------------------------------
    # Application traffic
    # ------------------------------------------------------------------
    def _receive_app(self, msg: NetworkMessage) -> None:
        envelope: CoEnvelope = msg.payload
        if envelope.dedup_id in self._delivered:
            self._discard(msg, "duplicate")
            return
        if envelope.epoch < self.epoch:
            # From an overtaken epoch: acceptable only if it was in flight
            # across every recovery cut it missed.
            for epoch in range(envelope.epoch, self.epoch):
                cut = self._recovery_cuts.get(epoch)
                if cut is None or envelope.round >= cut:
                    self._discard(msg, "obsolete")
                    return
        # A message from a round we have not joined yet proves that round
        # started: join (snapshot) before delivering, or the cut would
        # record our pre-cut state depending on the sender's post-cut one.
        if envelope.epoch == self.epoch and envelope.round > self.round:
            self._advance_to_round(envelope.round)
        # Channel-state capture: the message crosses every snapshot newer
        # than its send round.
        for round_number, log in self._channel_logs.items():
            if envelope.round < round_number <= self.round:
                log.append((envelope, msg.msg_id))
        self._deliver_envelope(envelope, msg_id=msg.msg_id, src=msg.src)

    def _deliver_envelope(self, envelope: CoEnvelope, *, msg_id: int,
                          src: int) -> None:
        self._delivered.add(envelope.dedup_id)
        self.stats.app_delivered += 1
        self._finish_step(
            self.executor.execute(envelope.payload, msg_id=msg_id)
        )

    def _send_app(self, dst: int, payload: Any, *, transmit: bool) -> None:
        """Coordinated checkpointing never replays: every send transmits."""
        envelope = CoEnvelope(
            payload=payload,
            round=self.round,
            epoch=self.epoch,
            dedup_id=(self.pid, self._send_seq),
        )
        self._send_seq += 1
        sent = self.env.send(dst, envelope, kind="app")
        self.stats.app_sent += 1
        self.stats.piggyback_entries += 2      # round + epoch
        self.stats.piggyback_bits += 64
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.SEND, self.pid,
                msg_id=sent.msg_id, dst=dst,
                uid=self.executor.current_uid,
                dedup=envelope.dedup_id,
            )

    def piggyback_entry_count(self) -> int:
        return 2
