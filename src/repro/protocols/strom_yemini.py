"""Optimistic recovery after Strom & Yemini [27].

The founding optimistic protocol.  Mechanically close to Damani-Garg --
transitive dependency vectors of ``(incarnation, index)`` pairs, optimistic
receiver logging, checkpoints -- but with the crucial difference the paper
fixes: **a rollback also begins a new incarnation and broadcasts its own
announcement**, exactly like a failure does.

Consequences (all measurable in the comparison harness):

- a single root failure cascades: P2 rolls back for P1's announcement and
  announces; P3 may first roll back for P2's announcement and then again
  for P1's (or vice versa), so one process can roll back several times per
  failure -- the paper's Table 1 cites a 2^n worst case, against exactly 1
  for Damani-Garg;
- every rollback costs a broadcast, so control traffic is higher;
- the incarnation-end table must cover rollback incarnations too, so more
  announcements gate deliverability.

Announcements carry a ``root`` tag (origin failure) purely for
*measurement*: `stats.rollbacks_per_failure` is keyed by root so the
harness can count rollbacks per root failure.  The tag does not influence
protocol decisions.

Strom-Yemini assumed FIFO channels; this implementation postpones messages
that mention incarnations whose predecessors are unannounced (the same
hold-until-known device as the main protocol), so it runs correctly under
any ordering, but it is graded under FIFO in Table 1 as published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.protocols.base import BaseRecoveryProcess
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind

#: A dependency entry: (incarnation, state index), ordered lexicographically.
DepEntry = tuple[int, int]


@dataclass(frozen=True)
class SYEnvelope:
    payload: Any
    dv: tuple[DepEntry, ...]         # transitive dependency vector


@dataclass(frozen=True)
class SYAnnouncement:
    """'Incarnation ``incarnation`` of ``origin`` ended at ``end_index``;
    states beyond it are dead.'  Sent after failures AND after rollbacks.
    ``end_index = -1`` kills the whole incarnation (used when a recovery
    reaches below the point where that incarnation began)."""

    origin: int
    incarnation: int
    end_index: int
    root: tuple[int, int]            # (root pid, root crash count) -- metrics


class StromYeminiProcess(BaseRecoveryProcess):
    """One Strom-Yemini process."""

    name = "Strom-Yemini"
    requires_fifo = True
    asynchronous_recovery = True
    tolerates_concurrent_failures = False

    def __init__(self, env, app, config=None) -> None:
        super().__init__(env, app, config)
        self.incarnation = 0
        self.index = 0
        self.dv: list[DepEntry] = [(0, 0) for _ in range(self.n)]
        self.dv[self.pid] = (0, 0)
        # incarnation end table: (pid, incarnation) -> end index
        self.iet: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.storage.put("max_incarnation", 0)
        super().on_start()

    def on_network_message(self, msg: NetworkMessage) -> None:
        if msg.kind == "token":
            self._receive_announcement(msg.payload)
        elif msg.kind == "app":
            self._receive_app(msg)
        else:
            raise ValueError(f"unexpected message kind {msg.kind!r}")

    def on_restart(self) -> None:
        self.stats.restarts += 1
        ckpt = self.storage.checkpoints.latest()
        self._restore(ckpt, "restart")
        replayed = self._replay_log(ckpt.log_position)
        root = (self.pid, self.env.crash_count)
        self._end_incarnations_and_reincarnate(root)
        self._restarted(self.incarnation, replayed)
        self.take_checkpoint()
        for announcement in self.storage.tokens:
            self._apply_announcement(announcement)

    # ------------------------------------------------------------------
    # Dependency-vector helpers
    # ------------------------------------------------------------------
    def _dv_obsolete(self, dv: tuple[DepEntry, ...]) -> bool:
        for j, (inc, idx) in enumerate(dv):
            end = self.iet.get((j, inc))
            if end is not None and idx > end:
                return True
        return False

    def _dv_missing(self, dv: tuple[DepEntry, ...]) -> list[tuple[int, int]]:
        missing = []
        for j, (inc, _idx) in enumerate(dv):
            for earlier in range(inc):
                if (j, earlier) not in self.iet:
                    missing.append((j, earlier))
        return missing

    def _dv_merge(self, dv: tuple[DepEntry, ...]) -> None:
        self.dv = [max(a, b) for a, b in zip(self.dv, dv)]

    def _dv_orphaned_by(
        self, dv: list[DepEntry], ann: SYAnnouncement
    ) -> bool:
        inc, idx = dv[ann.origin]
        return inc == ann.incarnation and idx > ann.end_index

    # ------------------------------------------------------------------
    # Receive message
    # ------------------------------------------------------------------
    def _receive_app(self, msg: NetworkMessage) -> None:
        envelope: SYEnvelope = msg.payload
        if self._dv_obsolete(envelope.dv):
            self._discard(msg, "obsolete")
            return
        missing = self._dv_missing(envelope.dv)
        if missing:
            self._postpone(msg, missing)
            return
        self._deliver(msg)

    def _deliver(self, msg: NetworkMessage) -> None:
        envelope: SYEnvelope = msg.payload
        self._dv_merge(envelope.dv)
        self.index += 1
        self.dv[self.pid] = (self.incarnation, self.index)
        self.stats.app_delivered += 1
        ctx = self.executor.execute(envelope.payload, msg_id=msg.msg_id)
        # The entry remembers the (incarnation, index) label this state was
        # created under, so replay can resurrect it with the identical
        # label even if the checkpoint predates a reincarnation.
        self.storage.log.append(
            msg.msg_id, msg.src, envelope.payload,
            meta=(envelope.dv, self.executor.current_uid,
                  (self.incarnation, self.index)),
        )
        self._finish_step(ctx)

    def _replay_entry(self, entry) -> None:
        dv, uid, own_label = entry.meta
        self._dv_merge(dv)
        self.incarnation, self.index = own_label
        self.dv[self.pid] = own_label
        self._replay(entry.payload, entry.msg_id, uid)

    def _send_app(self, dst: int, payload: Any, *, transmit: bool) -> None:
        envelope = SYEnvelope(payload=payload, dv=tuple(self.dv))
        if transmit:
            sent = self.env.send(dst, envelope, kind="app")
            self.stats.app_sent += 1
            self.stats.piggyback_entries += len(envelope.dv)
            self.stats.piggyback_bits += len(envelope.dv) * (32 + 8)
            if self.trace is not None:
                self.trace.record(
                    self.env.now, EventKind.SEND, self.pid,
                    msg_id=sent.msg_id, dst=dst,
                    uid=self.executor.current_uid,
                )

    # ------------------------------------------------------------------
    # Announcements
    # ------------------------------------------------------------------
    def _iet_install(self, key: tuple[int, int], end: int) -> None:
        """Incarnation ends only shrink: a later, lower end (a recovery
        that reached further back) must never be widened by a stale,
        reordered announcement."""
        existing = self.iet.get(key)
        if existing is None or end < existing:
            self.iet[key] = end

    def _end_incarnations_and_reincarnate(self, root: tuple[int, int]) -> None:
        """Kill everything after the current (restored) state and begin a
        fresh incarnation (used by both restart and rollback).

        The current state sits in incarnation ``self.incarnation``; every
        incarnation this process ever started beyond it (recorded durably
        in ``max_incarnation``) is now entirely dead and must be announced
        as such, or messages from those states would remain acceptable.
        """
        max_used = self.storage.get("max_incarnation", self.incarnation)
        kills = [(self.incarnation, self.index)]
        kills.extend(
            (inc, -1) for inc in range(self.incarnation + 1, max_used + 1)
        )
        for incarnation, end in kills:
            announcement = SYAnnouncement(
                origin=self.pid,
                incarnation=incarnation,
                end_index=end,
                root=root,
            )
            self.storage.log_token(announcement)
            self._iet_install((self.pid, incarnation), end)
            self.env.broadcast(announcement, kind="token")
            self.stats.tokens_sent += self.n - 1
            self.stats.control_sent += self.n - 1
            if self.trace is not None:
                self.trace.record(
                    self.env.now, EventKind.TOKEN_SEND, self.pid,
                    version=incarnation,
                    timestamp=end,
                )
        self.incarnation = max_used + 1
        self.storage.put("max_incarnation", self.incarnation)
        self.index = 0
        self.dv[self.pid] = (self.incarnation, 0)

    def _receive_announcement(self, announcement: SYAnnouncement) -> None:
        self.stats.tokens_received += 1
        self.storage.log_token(announcement)
        self.stats.sync_log_writes += 1
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.TOKEN_DELIVER, self.pid,
                origin=announcement.origin,
                version=announcement.incarnation,
                timestamp=announcement.end_index,
            )
        self._apply_announcement(announcement)
        self._release_held()

    def _apply_announcement(self, announcement: SYAnnouncement) -> None:
        if self._dv_orphaned_by(self.dv, announcement):
            self._rollback(announcement)
        self._iet_install(
            (announcement.origin, announcement.incarnation),
            announcement.end_index,
        )

    # ------------------------------------------------------------------
    # Rollback -- unlike Damani-Garg, it re-incarnates and re-announces
    # ------------------------------------------------------------------
    def _rollback(self, announcement: SYAnnouncement) -> None:
        self.flush_log()
        orphaned = self._dv_orphaned_by
        ckpt = self.storage.checkpoints.latest_satisfying(
            lambda c: not orphaned(c.extras["dv"], announcement)
        )
        if ckpt is None:
            raise RuntimeError(
                f"P{self.pid}: no surviving checkpoint for {announcement!r}"
            )
        self._restore(ckpt, "rollback")
        self.storage.checkpoints.discard_after(ckpt)
        replayed = self._replay_log(
            ckpt.log_position,
            lambda entry: orphaned(entry.meta[0], announcement),
        )
        discarded = self.storage.log.truncate(ckpt.log_position + replayed)
        # Re-apply all known announcements over the restored table.
        for logged in self.storage.tokens:
            self._iet_install(
                (logged.origin, logged.incarnation), logged.end_index
            )
        # The Strom-Yemini move: a rollback ends this incarnation too.
        self._end_incarnations_and_reincarnate(announcement.root)
        self._rolled_back(
            announcement.origin,
            announcement.incarnation,
            announcement.end_index,
            replayed=replayed,
            discarded=discarded,
            failure=announcement.root,
        )

    # ------------------------------------------------------------------
    def checkpoint_extras(self) -> dict[str, Any]:
        return {
            "dv": list(self.dv),
            "incarnation": self.incarnation,
            "index": self.index,
            "iet": dict(self.iet),
        }

    def _restore_checkpoint(self, ckpt) -> None:
        super()._restore_checkpoint(ckpt)
        self.dv = list(ckpt.extras["dv"])
        self.incarnation = ckpt.extras["incarnation"]
        self.index = ckpt.extras["index"]
        self.iet = dict(ckpt.extras["iet"])

    def piggyback_entry_count(self) -> int:
        return self.n
