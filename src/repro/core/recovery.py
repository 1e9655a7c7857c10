"""The Damani-Garg asynchronous recovery protocol (paper Section 6, Fig. 4).

One :class:`DamaniGargProcess` runs per application process and implements
the four protocol actions exactly as published:

**Receive message** (6.1)
    Discard if obsolete (history token record contradicts the message's
    clock, Lemma 4); postpone if the clock mentions a version for which an
    earlier version's token has not arrived; otherwise log to the volatile
    buffer, update history and FTVC, and run the application handler.

**Restart after a failure** (6.2)
    Restore the last checkpoint, replay the stable log, broadcast a token
    ``(failed version, restored timestamp)``, increment the version, reset
    the timestamp, update the history, and take a fresh checkpoint (so the
    version number survives another failure).  Recovery is completely
    asynchronous: nothing here waits for any other process.

**Receive token** (6.3)
    Synchronously log the token; if the history shows a message record for
    the failed version above the restoration point, the process is an
    orphan (Lemma 3) and rolls back; either way the token record is
    installed and messages postponed for this token are re-examined.

**Rollback** (6.4)
    Flush the log (a non-failed process loses nothing), restore the maximum
    non-orphan checkpoint, replay logged messages up to the orphan point,
    discard the orphan suffix of checkpoints and log, and bump the FTVC
    timestamp (the version is untouched: rollback is not a failure).

Extensions from Section 6.5 are opt-in via
:class:`~repro.protocols.base.ProtocolConfig`:

- ``retransmit_on_token`` -- Remark 1: the token carries the full clock and
  peers retransmit logged sends concurrent with the restored state, so
  messages received-but-unlogged at the failure are not lost forever.

Per-message dedup ids give every process duplicate suppression
unconditionally (exactly-once delivery on an at-least-once transport);
``retransmit_on_token`` only controls whether the send history needed for
retransmission is kept.  The delivered-id set is not checkpointed: every
id in it came with a log entry, so a restore rebuilds it from the stable
log and the ids of the prefix GC discarded (the storage's dedup base).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, NamedTuple

from repro.core.ftvc import ClockEntry, FaultTolerantVectorClock
from repro.core.history import History, RecordKind
from repro.core.tokens import RecoveryToken
from repro.protocols.base import BaseRecoveryProcess, ProtocolConfig
from repro.runtime.app import Application
from repro.runtime.env import RuntimeEnv
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind
from repro.storage.checkpoint import SEND_LOG


@dataclass(frozen=True)
class AppEnvelope:
    """What actually travels on the wire for an application message."""

    payload: Any
    clock: FaultTolerantVectorClock
    dedup_id: tuple[int, int]       # (sender pid, sender send sequence)


class _SendLogEntry(NamedTuple):
    """Send-history entry kept for the Remark-1 retransmission extension."""

    dst: int
    envelope: AppEnvelope
    sender_uid: tuple[int, int, int]


_new_send_log_entry = tuple.__new__


class DamaniGargProcess(BaseRecoveryProcess):
    """The paper's protocol for one process."""

    name = "Damani-Garg"
    requires_fifo = False
    asynchronous_recovery = True
    tolerates_concurrent_failures = True

    def __init__(
        self,
        env: RuntimeEnv,
        app: Application,
        config: ProtocolConfig | None = None,
    ) -> None:
        super().__init__(env, app, config)
        self.clock = FaultTolerantVectorClock.initial(self.pid, self.n)
        self.history = History(self.pid, self.n)
        # Volatile state, all lost in a crash (with the base's _held):
        self._send_seq = 0                        # dedup id source
        self._delivered_ids: set[tuple[int, int]] = set()   # log-derived
        # Remark-1 sends since the last checkpoint; the checkpoint moves
        # them onto the storage's send stream.
        self._send_tail: list[_SendLogEntry] = []
        # Last clock put on the wire per destination, the delta-encoding
        # base a link-level encoder would hold.  Volatile on purpose: a
        # crash (like a live reconnect) resets every link to the
        # full-clock fallback.
        self._wire_clock_sent: dict[int, FaultTolerantVectorClock] = {}
        # Debug/analysis map: state uid -> FTVC at state creation.  Not part
        # of the protocol; the Theorem 1 oracle reads it.
        self.clock_by_uid: dict[tuple[int, int, int], FaultTolerantVectorClock] = {
            self.executor.current_uid: self.clock
        }
        # Section 6.5 extension state (driven by stability gossip):
        self._stable_own = self.clock[self.pid]   # flushed frontier entry
        # Last frontier entry reported by each peer.  Volatile: after a
        # crash the next gossip round repopulates it (a stale loss only
        # delays GC).
        self._frontier_reports: dict[int, ClockEntry] = {}
        # pending outputs: (dedup key, clock at emission, value); volatile.
        self._pending_outputs: list[
            tuple[tuple, FaultTolerantVectorClock, Any]
        ] = []
        if self.config.commit_outputs:
            # Commit keys are stable: a crash between commit and replay
            # must not double-commit (the environment saw the value).
            self.storage.put("committed_outputs", set())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_network_message(self, msg: NetworkMessage) -> None:
        if msg.kind == "token":
            self._receive_token(msg.payload)
        elif msg.kind == "app":
            self._receive_app(msg)
        elif msg.kind == "frontier":
            self._receive_frontier(*msg.payload)
        else:
            raise ValueError(f"unexpected message kind {msg.kind!r}")

    def on_crash(self) -> None:
        lost = self.storage.on_crash()
        self._held.clear()
        self._send_tail.clear()
        self._delivered_ids.clear()
        self._pending_outputs.clear()
        self._wire_clock_sent.clear()
        self._frontier_reports.clear()
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.CUSTOM,
                self.pid,
                what="volatile_lost",
                unlogged=lost,
            )

    def on_restart(self) -> None:
        """Section 6.2: restore, replay, token, new version, checkpoint."""
        self.stats.restarts += 1
        if len(self.storage.checkpoints) == 0:
            self._fresh_start_after_crash()
            return
        ckpt = self.storage.checkpoints.latest()
        with self.obs.span("dg.restart_replay_wall_s"):
            self._restore(ckpt, "restart")
            replayed = self._replay_log(ckpt.log_position)
        # The restored checkpoint can predate the incarnation that just
        # failed (a rollback may have discarded every later checkpoint), in
        # which case replay reconstructed our own entry in an *older*
        # version's terms.  The token must condemn the version we actually
        # ran: adopt the *version* from the durable own-entry frontier,
        # which every stable write keeps current.  Only the version -- no
        # state of a later version was reconstructible, so timestamp 0 is
        # the sound restoration point for it; adopting the frontier's
        # timestamp within the replayed version would under-condemn states
        # the rollback truncated out of the stable log.
        durable_own = self.storage.get("stable_own")
        if (
            durable_own is not None
            and durable_own.version > self.clock[self.pid].version
        ):
            entries = list(self.clock.entries)
            entries[self.pid] = ClockEntry(durable_own.version, 0)
            self.clock = FaultTolerantVectorClock(entries)
            self._stable_own = entries[self.pid]
        failed_version = self.clock[self.pid].version
        restored_ts = self.clock[self.pid].timestamp
        token = RecoveryToken(
            origin=self.pid,
            version=failed_version,
            timestamp=restored_ts,
            full_clock=self.clock if self.config.retransmit_on_token else None,
        )
        # The token log through the restart checkpoint is one durable
        # step.  The broadcast inside it cannot outrun that record on the
        # live engine: the transport writes from its own task, after this
        # synchronous call returns.
        with self.storage.atomic():
            self.storage.log_token(
                token, dedupe_key=(token.origin, token.version)
            )
            self.env.broadcast(token, kind="token")
            self.stats.tokens_sent += self.n - 1
            self.stats.control_sent += self.n - 1
            self.obs.counter("dg.tokens_broadcast", self.n - 1)
            self.obs.counter("dg.restarts")
            if self.obs.enabled:
                self.obs.event(
                    "dg.restart",
                    pid=self.pid,
                    failed_version=failed_version,
                    replayed=replayed,
                )
            if self.trace is not None:
                self.trace.record(
                    self.env.now,
                    EventKind.TOKEN_SEND,
                    self.pid,
                    version=failed_version,
                    timestamp=restored_ts,
                )
            self.clock = self.clock.restart(self.pid)
            self.history.observe_token(token)
            new_version = self.clock[self.pid].version
            self._restarted(
                new_version,
                replayed,
                failed_version=failed_version,
                new_version=new_version,
                restored_ts=restored_ts,
            )
            self.clock_by_uid[self.executor.current_uid] = self.clock
            self.take_checkpoint()
        # Tokens are logged synchronously precisely so a failure cannot
        # forget them; re-apply every logged token to the restored history
        # (re-application is idempotent and may trigger a further rollback
        # if the restored suffix is an orphan of some other failure).
        for logged in self.storage.tokens:
            self._apply_token(logged)
        self._sample_obs_gauges()

    def _fresh_start_after_crash(self) -> None:
        """Boot again when the failed incarnation left *nothing* durable.

        Only a live node SIGKILLed before checkpoint 0's record landed
        gets here: ``on_start`` is synchronous, so no delivery can
        interleave between bootstrap and checkpoint 0, and the lost
        interval is exactly the deterministic bootstrap.
        Nothing unreconstructible was lost -- reset the volatile
        protocol state and run ``on_start`` again.  The re-sent
        bootstrap messages carry the original dedup ids (the sequence
        restarts at zero), so receivers that consumed the first copies
        absorb the duplicates, and no token is needed.
        """
        self.clock = FaultTolerantVectorClock.initial(self.pid, self.n)
        self.history = History(self.pid, self.n)
        self._send_seq = 0
        self._stable_own = self.clock[self.pid]
        self.clock_by_uid = {self.executor.current_uid: self.clock}
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.CUSTOM,
                self.pid,
                what="fresh_start",
            )
        self.on_start()

    def _represent(self, entry) -> None:
        """Hand a truncated log entry to the receive path again, as the
        network message it once was."""
        envelope = self._rebuild_envelope(
            entry.payload, entry.meta[0], entry.meta[1]
        )
        self._receive_app(
            NetworkMessage(
                entry.msg_id, entry.src, self.pid, "app", envelope,
                self.env.now,
            )
        )

    def _sample_obs_gauges(self) -> None:
        """Per-process gauge samples (history memory, postponed queue).

        ``history.size()`` is the live O(n·f) quantity of Section 6.9;
        sampling it at every history mutation gives the obs layer its
        trajectory and peak.  Guarded: the size computation is not free.
        """
        if self.obs.enabled:
            self.obs.gauge(
                f"dg.history_records.p{self.pid}", self.history.size()
            )
            self.obs.gauge(
                f"dg.postponed_depth.p{self.pid}", len(self._held)
            )

    # ------------------------------------------------------------------
    # Receive message (Section 6.1)
    # ------------------------------------------------------------------
    def _receive_app(self, msg: NetworkMessage) -> None:
        envelope: AppEnvelope = msg.payload
        history = self.history
        # The frontier comparison settles the common message (not
        # obsolete, nothing awaited) in one pass; the two exact tests run
        # only when some entry names a version other than the one the
        # history expects.
        if not history.admits(envelope.clock):
            if history.is_obsolete(envelope.clock):
                self.obs.counter("dg.obsolete_discarded")
                self._discard(msg, "obsolete")
                return
            missing = history.missing_tokens(envelope.clock)
            if missing:
                self._postpone(msg, missing)
                self.obs.counter("dg.postponed")
                if self.obs.enabled:
                    self.obs.gauge(
                        f"dg.postponed_depth.p{self.pid}", len(self._held)
                    )
                return
        if envelope.dedup_id in self._delivered_ids:
            self.obs.counter("dg.duplicates_discarded")
            self._discard(msg, "duplicate")
            return
        self._deliver(msg)

    def _deliver(self, msg: NetworkMessage) -> None:
        envelope: AppEnvelope = msg.payload
        self.history.observe_message_clock(envelope.clock)
        self.clock = state_clock = self.clock.receive(envelope.clock, self.pid)
        self._delivered_ids.add(envelope.dedup_id)
        self.stats.app_delivered += 1
        if self.obs.enabled:
            self._sample_obs_gauges()
        ctx = self.executor.execute(envelope.payload, msg_id=msg.msg_id)
        uid = self.executor.current_uid
        self.clock_by_uid[uid] = state_clock
        # Log after execution so the entry can carry the uid of the state it
        # created (needed for identity-preserving replay).  Receive and log
        # are a single atomic simulator event, so this ordering is
        # unobservable to the rest of the system.
        # The entry snapshots the post-delivery *receiver* clock alongside
        # the message clock: replay restores it verbatim, so clock events
        # that happened between deliveries (a rollback's tick, a restart's
        # version bump) are reproduced even though they leave no log entry
        # of their own.  Recomputing merge+tick from the checkpoint instead
        # would silently understate replayed clocks whenever recovery
        # interleaved with the logged suffix.
        self.storage.log.append(
            msg.msg_id,
            msg.src,
            envelope.payload,
            meta=(envelope.clock, envelope.dedup_id, uid, state_clock),
        )
        for send in ctx.sends:
            self._send_app(send.dst, send.payload, transmit=True)
        if ctx.outputs:
            self.emit_outputs(ctx.outputs, replay=False)

    def _replay_entry(self, entry) -> None:
        """Re-execute one logged receive; sends and outputs are suppressed
        (piecewise determinism guarantees they equal the originals)."""
        clock, dedup_id, uid, state_clock = entry.meta
        self.history.observe_message_clock(clock)
        # Restore the logged post-delivery clock rather than recomputing
        # merge+tick: the logged value embeds every clock adjustment that
        # recovery events made between entries (see the append site).
        self.clock = state_clock
        self._delivered_ids.add(dedup_id)
        # First write wins: a same-incarnation replay reconstructs the
        # original clock exactly, but a post-restart replay of an entry
        # from a later incarnation rebuilds the state content under an
        # older own version -- the clock recorded at the original
        # delivery is the truthful one for the Theorem 1 oracle.
        self.clock_by_uid.setdefault(uid, state_clock)
        self._replay(entry.payload, entry.msg_id, uid)

    def inject_app_send(self, dst: int, payload: Any) -> None:
        """Environment-driven send outside any delivery or bootstrap.

        The entry point for open-loop load generation
        (:mod:`repro.live.load`): the source hands jobs to the protocol at
        its own cadence and each goes out with the current clock and a
        fresh dedup id, exactly like a bootstrap send.  Like bootstrap
        sends, injected sends are not replayable from the log -- ones
        newer than the last checkpoint are lost if this process fails --
        so a load scenario must not crash the injecting process.  That is
        sound for the same reason bootstrap is: a process that never
        *receives* application messages acquires no foreign clock
        dependencies and can never become an orphan.
        """
        self._send_app(dst, payload, transmit=True)

    def _send_app(self, dst: int, payload: Any, *, transmit: bool) -> None:
        """Attach the current clock, remember send history, tick.

        With ``transmit=False`` (replay) the message is not re-sent but the
        clock and the dedup sequence advance exactly as they originally did,
        keeping replayed state byte-identical to the lost original.
        """
        clock = self.clock
        envelope = AppEnvelope(payload, clock, (self.pid, self._send_seq))
        self._send_seq += 1
        uid = self.executor.current_uid
        if self.config.retransmit_on_token:
            self._send_tail.append(
                _new_send_log_entry(_SendLogEntry, (dst, envelope, uid))
            )
        if transmit:
            self._transmit(dst, envelope, uid)
        self.clock = clock.tick(self.pid)

    def _transmit(
        self,
        dst: int,
        envelope: AppEnvelope,
        sender_uid: tuple[int, int, int],
        *,
        retransmit: bool = False,
    ) -> None:
        """Put one envelope on the wire and account its piggyback cost.

        The delta accounting mirrors a per-link delta encoder: the first
        clock on a link (or after a crash reset) goes out full, afterwards
        only the diff against the last clock sent to ``dst``.  Exact byte
        counters (the wire codec's varints) only when the obs layer is on,
        since they cost a pass over the clock; they charge the delta, or
        the full clock again when that is smaller.
        """
        sent = self.env.send(dst, envelope, kind="app")
        clock = envelope.clock
        stats = self.stats
        stats.app_sent += 1
        stats.piggyback_entries += len(clock.entries)
        bits = clock.wire_size_bits()
        stats.piggyback_bits += bits
        base = self._wire_clock_sent.get(dst)
        if base is None:
            stats.piggyback_delta_bits += bits
        else:
            stats.piggyback_delta_bits += clock.delta_wire_size_bits(base)
        self._wire_clock_sent[dst] = clock
        obs = self.obs
        if obs.enabled:
            obs.counter("dg.piggyback_bytes", bits / 8.0)
            full_bytes = clock.wire_size_bytes()
            if base is None:
                delta_bytes = full_bytes
                obs.counter("dg.wire_full_fallbacks")
            else:
                delta_bytes = min(
                    full_bytes, clock.delta_wire_size_bytes(base)
                )
            obs.counter("dg.wire_bytes_full", full_bytes)
            obs.counter("dg.wire_bytes_delta", delta_bytes)
            obs.counter("dg.wire_clocks_sent")
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.SEND,
                self.pid,
                msg_id=sent.msg_id,
                dst=dst,
                uid=sender_uid,
                dedup=envelope.dedup_id,
                **({"retransmit": True} if retransmit else {}),
            )

    # ------------------------------------------------------------------
    # Receive token (Section 6.3)
    # ------------------------------------------------------------------
    def _receive_token(self, token: RecoveryToken) -> None:
        self.stats.tokens_received += 1
        # Synchronous write, before acting; a duplicate of an
        # already-logged (origin, version) is skipped -- the durable copy
        # is identical, so the fsync and the log growth are both saved.
        appended = self.storage.log_token(
            token, dedupe_key=(token.origin, token.version)
        )
        if appended:
            self.stats.sync_log_writes += 1
        self.obs.counter("dg.tokens_received")
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.TOKEN_DELIVER,
                self.pid,
                origin=token.origin,
                version=token.version,
                timestamp=token.timestamp,
            )
        self._apply_token(token)
        self._release_held()

    def _apply_token(self, token: RecoveryToken) -> None:
        """Orphan test, optional rollback, then install the token record."""
        leftovers: list = []
        if self.history.orphaned_by(token):
            self.obs.counter("dg.orphans_detected")
            leftovers = self._rollback(token)
        self.history.observe_token(token)
        if self.obs.enabled:
            self._sample_obs_gauges()
        if (
            self.config.retransmit_on_token
            and token.full_clock is not None
            and token.origin != self.pid
        ):
            self._retransmit_for(token)
        # Section 6.5 Remark 1: "no message is lost" in a rollback.  Log
        # entries past the orphan point were undone, but the non-obsolete
        # ones among them are still perfectly good messages whose senders
        # will never resend them; feed them back through the normal receive
        # path (which re-checks obsoleteness against the now-installed
        # token record and discards the rest).
        for entry in leftovers:
            self._represent(entry)

    def _rebuild_envelope(self, payload, clock, dedup_id):
        """Reconstruct the wire envelope for a re-presented log entry
        (subclasses with richer wire formats override this)."""
        return AppEnvelope(payload=payload, clock=clock, dedup_id=dedup_id)

    def _release_held(self) -> None:
        super()._release_held()
        if self.obs.enabled:
            self.obs.gauge(
                f"dg.postponed_depth.p{self.pid}", len(self._held)
            )

    # ------------------------------------------------------------------
    # Rollback (Section 6.4)
    # ------------------------------------------------------------------
    def _rollback(self, token: RecoveryToken) -> list:
        """Roll back to the latest non-orphan state.

        Returns the truncated log entries (received after the orphan
        point) so the caller can re-present the still-valid ones to the
        receive path once the token record is installed.
        """
        own_before = self.clock[self.pid]
        ckpt = self.storage.checkpoints.latest_satisfying(
            lambda c: c.extras["history"].survives_token(token)
        )
        if ckpt is None:
            # The initial checkpoint always qualifies, so only GC can empty
            # the survivors, and its anchor is permanently safe -- as long
            # as no rollback re-mints a timestamp a frontier report already
            # certified (the clock rule below; tests/stress/reproducers/).
            retained = [c.ckpt_id for c in self.storage.checkpoints]
            raise RuntimeError(
                f"P{self.pid}: no non-orphan checkpoint for {token!r} "
                f"(retained checkpoint ids: {retained})"
            )
        position = ckpt.log_position

        def orphan(entry) -> bool:
            e = entry.meta[0][token.origin]
            return e.version == token.version and e.timestamp > token.timestamp

        # The first flush through the stable_own write is one durable step.
        with self.storage.atomic():
            # A non-failed process loses nothing: log everything first.
            self.flush_log()
            with self.obs.span("dg.rollback_wall_s"):
                self._restore(ckpt, "rollback")
                self.storage.checkpoints.discard_after(ckpt)
                replayed = self._replay_log(position, orphan)
            boundary = position + replayed
            leftovers = list(self.storage.log.stable_entries(boundary))
            discarded = self.storage.log.truncate(boundary)
            # Figure 4's rule ticks the replayed clock.  Two cases
            # continue the *current* incarnation above everything it used
            # instead:
            # - The surviving checkpoint predates one of our own restarts.
            #   Regressing to its older version would mint version-v
            #   timestamps beyond the restoration point we announced for v
            #   (our own token would declare our fresh states obsolete).
            # - Stability gossip is on.  Figure 4's rule re-mints the
            #   timestamps of the truncated orphans, which a frontier
            #   report sent before the rollback still certifies as
            #   flushed.  Continuing, a (version, timestamp) pair names
            #   one state forever (a deviation from the paper,
            #   docs/PROTOCOL.md).
            if (
                self.config.gossip_interval is None
                and self.clock[self.pid].version == own_before.version
            ):
                self.clock = self.clock.tick(self.pid)
            else:
                entries = list(self.clock.entries)
                entries[self.pid] = ClockEntry(
                    own_before.version, own_before.timestamp + 1
                )
                self.clock = FaultTolerantVectorClock(entries)
            # The rollback began with a full flush, so the post-rollback
            # own entry is stable-reconstructible; persist it (the
            # rollback may be about to discard the only checkpoints
            # recording our version).
            self._set_stable_own(self.clock[self.pid])
        # Tokens are durable facts; reinstate every logged one over the
        # restored (older) history.
        for logged in self.storage.tokens:
            self.history.observe_token(logged)
        self._rolled_back(
            token.origin,
            token.version,
            token.timestamp,
            replayed=replayed,
            discarded=discarded,
        )
        self.clock_by_uid[self.executor.current_uid] = self.clock
        self.obs.counter("dg.rollbacks")
        if self.obs.enabled:
            self.obs.event(
                "dg.rollback",
                pid=self.pid,
                origin=token.origin,
                version=token.version,
                replayed=replayed,
                discarded=discarded,
            )
        self._sample_obs_gauges()
        return leftovers

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def checkpoint_extras(self) -> dict[str, Any]:
        extras: dict[str, Any] = {
            "clock": self.clock,
            "history": self.history.snapshot(),
            "send_seq": self._send_seq,
        }
        if self.config.retransmit_on_token:
            # Called once per checkpoint, by take_checkpoint: the tail
            # joins the send stream in the checkpoint's own write, and
            # the checkpoint keeps a view of the stream up to its end.
            extras[SEND_LOG] = self.storage.send_append(self._send_tail)
            self._send_tail = []
        return extras

    def _restore_checkpoint(self, ckpt) -> None:
        super()._restore_checkpoint(ckpt)
        self.clock = ckpt.extras["clock"]
        self.history = ckpt.extras["history"].snapshot()
        self._send_seq = ckpt.extras["send_seq"]
        self._pending_outputs = []    # replay re-emits what still matters
        self._delivered_ids = self._delivered_before(ckpt.log_position)
        self._send_tail = []
        self.storage.send_cut_to(ckpt)

    def _delivered_before(self, position: int) -> set[tuple[int, int]]:
        """The dedup ids delivered before log ``position``.

        Each id joined the set with a log entry (a delivery appends one,
        a replay reads one), and a checkpoint flushes first, so the set
        a checkpoint at ``position`` saw is the dedup base plus the ids
        of the retained stable log below ``position``.  Duplicate
        suppression survives a rollback or restart this way even
        without the retransmission extension (the transport may be
        at-least-once regardless).
        """
        delivered = set(self.storage.dedup_base)
        delivered.update(self._logged_ids_before(position))
        return delivered

    def _logged_ids_before(self, position: int) -> list[tuple[int, int]]:
        """The dedup ids of the retained stable log below ``position``."""
        return [
            entry.meta[1]
            for entry in self.storage.log.retained_before(position)
        ]

    # ------------------------------------------------------------------
    # Remark-1 extension: retransmission of possibly-lost messages
    # ------------------------------------------------------------------
    def _retransmit_for(self, token: RecoveryToken) -> None:
        """Resend logged sends to the failed process that the restored
        state may not reflect.

        The paper's Remark 1 says to resend sends *concurrent* with the
        token's state.  We resend every send that does not causally follow
        the restored state -- concurrent or happened-before -- because a
        message whose send precedes the restored state through some other
        path can still have been received inside the lost suffix.
        Receiver-side dedup ids make the superset harmless.
        """
        assert token.full_clock is not None
        sends = chain(self.storage.sends, self._send_tail)
        for dst, envelope, sender_uid in sends:
            if dst == token.origin and not (
                token.full_clock <= envelope.clock
            ):
                self.stats.retransmitted += 1
                self.obs.counter("dg.retransmitted")
                self._transmit(dst, envelope, sender_uid, retransmit=True)

    # ------------------------------------------------------------------
    # Section 6.5 extensions: output commit and garbage collection
    # ------------------------------------------------------------------
    def flush_log(self) -> int:
        # The log flush and the stable_own write are one durable step:
        # the durable clock frontier moves in lockstep with the stable log.
        with self.storage.atomic():
            moved = super().flush_log()
            # Everything delivered so far is now reconstructible from
            # stable storage; our own-entry joins the stable frontier.
            self._set_stable_own(self.clock.entries[self.pid])
        return moved

    def _set_stable_own(self, entry) -> None:
        """Record the own-entry frontier of stable storage (durably).

        The frontier rides in the record of the flush or rollback that
        moved it, so persisting it here adds one word to that record, not
        a new one.  ``on_restart``
        reads back the *version*: it must survive failures even when every
        checkpoint of the current incarnation has been discarded by an
        interleaved rollback, or a second failure would re-announce an
        already-dead version and leave that incarnation's orphans standing.

        Plain assignment: under Figure 4's rollback rule the post-rollback
        entry can fall below the old one, which would cover states stable
        storage no longer holds and mis-aim the next restart token.  With
        stability gossip on, a rollback continues the timestamp instead,
        so within a version the frontier only grows.
        """
        self._stable_own = entry
        self.storage.put("stable_own", self._stable_own)

    def stable_frontier(self):
        """The own clock entry of our latest stable-storage-recoverable
        state, what :meth:`gossip_tick` reports."""
        return self._stable_own

    # ------------------------------------------------------------------
    # Stability gossip: what runs output commit and GC, on both engines
    # ------------------------------------------------------------------
    def gossip_tick(self) -> None:
        """Broadcast our stable frontier; sweep if a full vector is held.

        Stale reports are sound (see ProtocolConfig.gossip_interval):
        a frontier entry only ever certifies states that were stable when
        it was reported, and a stable prefix is recoverable forever.
        """
        self._receive_frontier(self.pid, self.stable_frontier())
        self.env.broadcast(
            (self.pid, self.stable_frontier()), kind="frontier"
        )
        self.stats.control_sent += self.n - 1
        self.obs.counter("dg.frontier_gossip", self.n - 1)

    def _receive_frontier(self, src: int, entry) -> None:
        # A codec hands a bare entry over as a plain pair: rebuilding it
        # validates it and gives apply_stability the type it compares.
        self._frontier_reports[src] = ClockEntry(*entry)
        if len(self._frontier_reports) == self.n:
            self.apply_stability(dict(self._frontier_reports))

    def emit_outputs(self, records, *, replay: bool) -> None:
        if not self.config.commit_outputs:
            super().emit_outputs(records, replay=replay)
            return
        committed: set = self.storage.get("committed_outputs")
        uid = self.executor.current_uid
        for index, record in enumerate(records):
            key = (uid, index)
            if key in committed:
                continue
            self._pending_outputs.append((key, self.clock, record.value))
            if not replay and self.trace is not None:
                self.trace.record(
                    self.env.now,
                    EventKind.OUTPUT,
                    self.pid,
                    value=record.value,
                    uid=uid,
                    committed=False,
                )

    def _entry_permanently_safe(self, j: int, entry, frontier) -> bool:
        """Can the dependence on ``(j, entry)`` ever be rolled back?

        Safe iff the state is within a restored prefix (attested by a
        token: replayed from stable storage, immune forever) or within
        ``j``'s current flushed frontier.
        """
        record = self.history.record(j, entry.version)
        if (
            record is not None
            and record.kind is RecordKind.TOKEN
            and entry.timestamp <= record.timestamp
        ):
            return True
        front = frontier.get(j)
        return (
            front is not None
            and entry.version == front.version
            and entry.timestamp <= front.timestamp
        )

    def _clock_permanently_safe(self, clock, frontier) -> bool:
        safe = self._entry_permanently_safe
        for j, entry in enumerate(clock.entries):
            if not safe(j, entry, frontier):
                return False
        return True

    def apply_stability(self, frontier) -> None:
        """One stability sweep: commit safe outputs, reclaim space."""
        if self.config.commit_outputs and self._pending_outputs:
            committed: set = self.storage.get("committed_outputs")
            still_pending = []
            for key, clock, value in self._pending_outputs:
                if self._clock_permanently_safe(clock, frontier):
                    committed.add(key)
                    self.outputs.append((self.env.now, value))
                    if self.trace is not None:
                        self.trace.record(
                            self.env.now,
                            EventKind.OUTPUT,
                            self.pid,
                            value=value,
                            uid=key[0],
                            committed=True,
                        )
                else:
                    still_pending.append((key, clock, value))
            committed_any = len(still_pending) < len(self._pending_outputs)
            self._pending_outputs = still_pending
            if committed_any:
                # The set was grown in place: write it back, or nothing
                # ever makes the commit durable.  Lazy is enough -- a
                # commit lost with the window is re-derived from the
                # replayed outputs at the next sweep.
                self.storage.put_lazy("committed_outputs", committed)
                if self.output_listener is not None:
                    self.output_listener()

        if self.config.enable_gc:
            anchor = None
            for ckpt in self.storage.checkpoints:
                if self._clock_permanently_safe(
                    ckpt.extras["clock"], frontier
                ):
                    anchor = ckpt
            if anchor is not None:
                # Checkpoint GC and log-prefix discard, with the dedup
                # ids the discarded entries held: one durable step.
                storage = self.storage
                with storage.atomic():
                    storage.checkpoints.garbage_collect_before(anchor.ckpt_id)
                    storage.extend_dedup_base(
                        self._logged_ids_before(anchor.log_position)
                    )
                    storage.log.discard_prefix(anchor.log_position)

    # ------------------------------------------------------------------
    # Harness introspection
    # ------------------------------------------------------------------
    def piggyback_entry_count(self) -> int:
        """O(n): one (version, timestamp) pair per process."""
        return self.clock.piggyback_entries()
