"""Synchronous optimistic recovery after Sistla & Welch [26].

Messages piggyback a plain vector clock (O(n) timestamps) plus a scalar
epoch.  Logging is optimistic (volatile buffer, periodic flush), so a
failure loses states; recovery is a *synchronous session* that computes
the maximum consistent recovery line by iterated retraction:

1. the restarted process restores and replays, then broadcasts
   ``SWBegin`` -- every process pauses application processing (the pause
   is ``stats.blocked_time``) and flushes its log;
2. the initiator runs ``n`` rounds; each round broadcasts the current cut
   vector ``C`` (per-process candidate timestamps) and every peer replies
   with its *candidate*: the latest of its restorable states whose vector
   clock is within ``C``.  Candidates only move down, so ``n`` rounds
   reach the fixed point (retraction cascades at most ``n - 1`` hops);
3. ``SWCommit(C)`` makes everyone roll back to its candidate (at most one
   rollback per failure) and resume in the next epoch.

In-flight messages from an old epoch are obsolete iff their clock exceeds
the committed cut in any component.  As published, the protocol assumes
FIFO channels and one failure at a time (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.clocks.vector import VectorClock
from repro.protocols.base import BaseRecoveryProcess
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind


@dataclass(frozen=True)
class SWEnvelope:
    payload: Any
    clock: VectorClock
    epoch: int


@dataclass(frozen=True)
class SWBegin:
    initiator: int
    epoch: int


@dataclass(frozen=True)
class SWRound:
    initiator: int
    epoch: int
    round: int
    cut: tuple[int | None, ...]       # None = unconstrained so far


@dataclass(frozen=True)
class SWReport:
    sender: int
    epoch: int
    round: int
    candidate_ts: int


@dataclass(frozen=True)
class SWCommit:
    initiator: int
    epoch: int
    cut: tuple[int, ...]


class SistlaWelchProcess(BaseRecoveryProcess):
    """One Sistla-Welch process."""

    name = "Sistla-Welch"
    requires_fifo = True
    asynchronous_recovery = False
    tolerates_concurrent_failures = False

    def __init__(self, env, app, config=None) -> None:
        super().__init__(env, app, config)
        self.clock = VectorClock.initial(self.pid, self.n)
        self.epoch = 0
        self.cutoffs: dict[int, tuple[int, ...]] = {}   # epoch -> committed cut
        # Session state:
        self._paused_for: int | None = None     # epoch of the active session
        self._buffered: list[NetworkMessage] = []
        self._blocked_since: float | None = None
        # Initiator state:
        self._round: int = 0
        self._cut: list[int | None] = []
        self._reports: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_network_message(self, msg: NetworkMessage) -> None:
        payload = msg.payload
        if isinstance(payload, SWBegin):
            self._on_begin(payload)
        elif isinstance(payload, SWRound):
            self._on_round(payload)
        elif isinstance(payload, SWReport):
            self._on_report(payload)
        elif isinstance(payload, SWCommit):
            self._on_commit(payload)
        elif self._paused_for is not None:
            self._buffered.append(msg)
        else:
            self._receive_app(msg)

    def on_crash(self) -> None:
        super().on_crash()
        self._buffered.clear()
        self._paused_for = None
        self._blocked_since = None
        self._reports = {}

    def on_restart(self) -> None:
        self.stats.restarts += 1
        ckpt = self.storage.checkpoints.latest()
        self._restore(ckpt, "restart")
        replayed = self._replay_log(ckpt.log_position)
        self._restarted(self.epoch + 1, replayed)
        self.take_checkpoint()
        if self.n == 1:
            self.epoch += 1
            return
        # Start the synchronous session.
        session_epoch = self.epoch + 1
        self._paused_for = session_epoch
        self._blocked_since = self.env.now
        self._round = 0
        self._cut = [None] * self.n
        self._cut[self.pid] = self.clock[self.pid]
        self.env.broadcast(SWBegin(self.pid, session_epoch), kind="token")
        self.stats.tokens_sent += self.n - 1
        self.stats.control_sent += self.n - 1
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.TOKEN_SEND, self.pid,
                version=session_epoch, timestamp=self.clock[self.pid],
            )
        self._start_round(session_epoch)

    # ------------------------------------------------------------------
    # Session: initiator side
    # ------------------------------------------------------------------
    def _start_round(self, epoch: int) -> None:
        self._reports = {}
        self.env.broadcast(
            SWRound(self.pid, epoch, self._round, tuple(self._cut)),
            kind="control",
        )
        self.stats.control_sent += self.n - 1

    def _on_report(self, report: SWReport) -> None:
        if self._paused_for is None or report.epoch != self._paused_for:
            return
        if report.round != self._round:
            return
        self._reports[report.sender] = report.candidate_ts
        if len(self._reports) < self.n - 1:
            return
        for sender, ts in self._reports.items():
            self._cut[sender] = ts
        # The initiator is a participant too: its replayed suffix may
        # depend on states the peers just retracted.
        own_position = self._candidate_position(tuple(self._cut))
        self._cut[self.pid] = self._state_clock_at(own_position)[self.pid]
        self._round += 1
        if self._round < self.n:
            self._start_round(report.epoch)
            return
        cut = tuple(ts if ts is not None else 0 for ts in self._cut)
        self.env.broadcast(
            SWCommit(self.pid, report.epoch, cut), kind="control"
        )
        self.stats.control_sent += self.n - 1
        self._finish_session(report.epoch, cut, initiator=True)

    # ------------------------------------------------------------------
    # Session: participant side
    # ------------------------------------------------------------------
    def _on_begin(self, begin: SWBegin) -> None:
        self.stats.tokens_received += 1
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.TOKEN_DELIVER, self.pid,
                origin=begin.initiator, version=begin.epoch, timestamp=0,
            )
        self._paused_for = begin.epoch
        self._blocked_since = self.env.now
        self.flush_log()

    def _candidate_position(self, cut: tuple[int | None, ...]) -> int:
        """The latest stable-log position whose state clock fits ``cut``."""
        for position in range(self.storage.log.stable_length, -1, -1):
            state_clock = self._state_clock_at(position)
            ok = True
            for j, bound in enumerate(cut):
                if j == self.pid or bound is None:
                    continue
                if state_clock[j] > bound:
                    ok = False
                    break
            if ok:
                return position
        raise RuntimeError(f"P{self.pid}: no state fits cut {cut}")

    def _state_clock_at(self, position: int) -> VectorClock:
        if position == 0:
            first = next(iter(self.storage.checkpoints))
            return first.extras["clock"]
        entry = self.storage.log.entry(position - 1)
        _msg_clock, state_clock, _uid = entry.meta
        return state_clock

    def _on_round(self, round_msg: SWRound) -> None:
        if self._paused_for is None and round_msg.epoch > self.epoch:
            # Round overtook the begin (possible under reordering): treat
            # it as the implicit session start.
            self._on_begin(SWBegin(round_msg.initiator, round_msg.epoch))
        if self._paused_for is None or round_msg.epoch != self._paused_for:
            return
        position = self._candidate_position(round_msg.cut)
        candidate_ts = self._state_clock_at(position)[self.pid]
        self.env.send(
            round_msg.initiator,
            SWReport(self.pid, round_msg.epoch, round_msg.round, candidate_ts),
            kind="control",
        )
        self.stats.control_sent += 1

    def _on_commit(self, commit: SWCommit) -> None:
        if self._paused_for is None or commit.epoch != self._paused_for:
            return
        self._finish_session(commit.epoch, commit.cut, initiator=False)

    def _finish_session(
        self, epoch: int, cut: tuple[int, ...], *, initiator: bool
    ) -> None:
        position = self._candidate_position(cut)
        if position < self.storage.log.stable_length:
            self._rollback_to(position, epoch, cut)
        self.cutoffs[self.epoch] = cut
        self.epoch = epoch
        # Commits are durable facts: a later restart must not forget a cut
        # it already acted on.
        self.storage.log_token(SWCommit(self.pid, epoch, cut))
        self._paused_for = None
        if self._blocked_since is not None:
            self.stats.blocked_time += self.env.now - self._blocked_since
            self._blocked_since = None
        self.take_checkpoint()
        buffered, self._buffered = self._buffered, []
        for msg in buffered:
            self.on_network_message(msg)
        self._release_held()

    def _rollback_to(
        self, position: int, epoch: int, cut: tuple[int, ...]
    ) -> None:
        ckpt = self.storage.checkpoints.latest_satisfying(
            lambda c: c.log_position <= position
        )
        assert ckpt is not None   # the initial checkpoint is at position 0
        self._restore(ckpt, "rollback")
        self.storage.checkpoints.discard_after(ckpt)
        replayed = self._replay_log(
            ckpt.log_position, lambda entry: entry.index >= position
        )
        discarded = self.storage.log.truncate(position)
        self.clock = self.clock.tick(self.pid)
        self._rolled_back(
            -1, epoch, 0,
            replayed=replayed, discarded=discarded, failure=(epoch, 0),
        )

    # ------------------------------------------------------------------
    # Application traffic
    # ------------------------------------------------------------------
    def _is_obsolete(self, envelope: SWEnvelope) -> bool:
        for epoch in range(envelope.epoch, self.epoch):
            cut = self.cutoffs.get(epoch)
            if cut is None:
                continue
            if any(envelope.clock[j] > cut[j] for j in range(self.n)):
                return True
        return False

    def _receive_app(self, msg: NetworkMessage) -> None:
        envelope: SWEnvelope = msg.payload
        if envelope.epoch > self.epoch:
            self._postpone(msg, [("epoch", envelope.epoch)])
            return
        if self._is_obsolete(envelope):
            self._discard(msg, "obsolete")
            return
        self._deliver(msg)

    def _deliver(self, msg: NetworkMessage) -> None:
        envelope: SWEnvelope = msg.payload
        self.clock = self.clock.merge(envelope.clock).tick(self.pid)
        self.stats.app_delivered += 1
        ctx = self.executor.execute(envelope.payload, msg_id=msg.msg_id)
        self.storage.log.append(
            msg.msg_id, msg.src, envelope.payload,
            meta=(envelope.clock, self.clock, self.executor.current_uid),
        )
        self._finish_step(ctx)

    def _replay_entry(self, entry) -> None:
        msg_clock, _state_clock, uid = entry.meta
        self.clock = self.clock.merge(msg_clock).tick(self.pid)
        self._replay(entry.payload, entry.msg_id, uid)

    def _send_app(self, dst: int, payload: Any, *, transmit: bool) -> None:
        envelope = SWEnvelope(payload=payload, clock=self.clock,
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
        for logged in self.storage.tokens:
            if isinstance(logged, SWCommit):
                self.cutoffs[logged.epoch - 1] = logged.cut
                self.epoch = max(self.epoch, logged.epoch)

    def piggyback_entry_count(self) -> int:
        return self.n + 1
