"""Common machinery for every recovery protocol.

A protocol process owns, per application process:

- an :class:`~repro.runtime.app.AppExecutor` running the
  piecewise-deterministic application (replayable);
- the environment's :class:`~repro.storage.stable.StableStorage`
  (checkpoints, message log, token log) surviving crashes;
- a :class:`ProtocolStats` block the metrics layer aggregates;
- periodic checkpoint / log-flush activities driven by environment timers.

Protocols are engine-agnostic: everything they touch goes through the
narrow :class:`~repro.runtime.env.RuntimeEnv` interface (``self.env``), so
the same protocol object runs under the discrete-event simulator and the
live asyncio cluster runtime.  Subclasses implement `on_network_message`
and `on_restart` (`on_start` and `on_crash` have defaults) plus whatever
control machinery their paper requires.

The recovery steps every protocol takes -- restore a checkpoint, replay
the stable log, begin a new incarnation, roll back, discard or postpone a
message -- are helpers here that each protocol calls in its own order, so
the ground-truth events they record (``RESTORE``, ``RESTART``,
``ROLLBACK``, ``DISCARD``, ``POSTPONE``) are written in one place.  A
protocol supplies only its tracking: ``_send_app`` (the envelope),
``_replay_entry`` (what its log entries carry), ``_receive_app`` (what
decides a held message) and ``_restore_checkpoint`` (what its
``checkpoint_extras`` saved).

Construction takes a :class:`RuntimeEnv`: under the simulator that is the
:class:`~repro.sim.env.SimEnv` (alias ``ProcessHost``) itself.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.obs.tracer import NULL_TRACER
from repro.runtime.app import (
    Application,
    AppExecutor,
    OutputRecord,
    ProcessContext,
    StateUid,
)
from repro.runtime.env import RuntimeEnv, TimerHandle
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind, SimTrace


@dataclass
class ProtocolConfig:
    """Knobs shared by all protocols.

    ``checkpoint_interval`` and ``flush_interval`` are in environment time
    (virtual under the simulator, seconds under the live runtime).
    ``flush_interval`` is the "infrequent intervals" of optimistic logging;
    pessimistic protocols ignore it and log synchronously.
    """

    checkpoint_interval: float = 10.0
    flush_interval: float = 3.0
    # Remark 1 extension: failed process broadcasts its full clock with the
    # token and peers retransmit messages concurrent with the restored state.
    retransmit_on_token: bool = False
    # Hold environment outputs until they are stable (never rolled back).
    # Needs gossip_interval: the stability sweeps commit them.
    commit_outputs: bool = False
    # Remark 2 extension: reclaim checkpoints and log prefixes below the
    # permanently-safe line.  Also done by the stability sweeps.
    enable_gc: bool = False
    # Stability gossip, the one trigger of the sweeps above (None = no
    # sweeps): every interval each process broadcasts its flushed
    # frontier and runs apply_stability once it holds a report from every
    # peer.  Stale reports are sound: with gossip on a rollback never
    # re-mints a (version, timestamp) pair (DamaniGargProcess._rollback),
    # so a report only ever covers states that were stable when sent.
    gossip_interval: float | None = None


@dataclass
class ProtocolStats:
    """Per-process counters read by :mod:`repro.analysis.metrics`."""

    app_sent: int = 0
    app_delivered: int = 0
    app_discarded: int = 0
    app_postponed: int = 0
    duplicates_discarded: int = 0
    control_sent: int = 0
    tokens_sent: int = 0
    tokens_received: int = 0
    piggyback_entries: int = 0       # scalar timestamps attached to app sends
    piggyback_bits: int = 0          # estimated encoded piggyback size
    # Estimated piggyback size under per-link delta encoding (full-clock
    # fallback on the first send of a link); compare with piggyback_bits.
    piggyback_delta_bits: int = 0
    restarts: int = 0
    rollbacks: int = 0
    replayed: int = 0
    retransmitted: int = 0
    sync_log_writes: int = 0
    blocked_time: float = 0.0        # virtual time spent blocked (pessimistic)
    # rollbacks attributed to each failure (origin pid, version) -- the
    # "at most one rollback per failure" measurement of Table 1.
    rollbacks_per_failure: dict[tuple[int, int], int] = field(
        default_factory=dict
    )

    def note_rollback(self, origin: int, version: int) -> None:
        self.rollbacks += 1
        key = (origin, version)
        self.rollbacks_per_failure[key] = (
            self.rollbacks_per_failure.get(key, 0) + 1
        )

    @property
    def max_rollbacks_for_single_failure(self) -> int:
        if not self.rollbacks_per_failure:
            return 0
        return max(self.rollbacks_per_failure.values())


class _Periodic:
    """One periodic activity: the method it calls, the ``ProtocolConfig``
    field holding its interval (``None`` there switches it off), and its
    pending timer -- running (``handle``) or suspended (``paused``)."""

    __slots__ = ("action", "interval", "label", "handle", "paused")

    def __init__(self, action: str, interval: str, label: str) -> None:
        self.action, self.interval = action, interval
        self.label = label
        self.handle: TimerHandle | None = None
        self.paused: TimerHandle | None = None


class BaseRecoveryProcess(abc.ABC):
    """One protocol instance attached to one :class:`RuntimeEnv`."""

    #: Human-readable protocol name (Table 1 row label).
    name: str = "abstract"
    #: Does the protocol assume FIFO channels?  (Table 1 column 1.)
    requires_fifo: bool = False
    #: Is recovery asynchronous -- can a failed process resume computing
    #: without waiting for responses from other processes?  (Column 2.)
    asynchronous_recovery: bool = False
    #: Can the protocol survive an unbounded number of concurrent failures?
    tolerates_concurrent_failures: bool = False

    def __init__(
        self,
        env: RuntimeEnv,
        app: Application,
        config: ProtocolConfig | None = None,
    ) -> None:
        self.env = env
        self.pid = env.pid
        self.n = env.n
        self.trace: SimTrace | None = env.trace
        self.config = config if config is not None else ProtocolConfig()
        self.executor = AppExecutor(app, self.pid, self.n, env)
        self.storage = env.storage
        self.stats = ProtocolStats()
        # Observability sink: the environment's tracer when one is attached
        # (the runner attaches it before protocols are built), else the
        # shared no-op.  Guard expensive metric arguments on
        # ``self.obs.enabled``.
        self.obs = env.tracer if env.tracer is not None else NULL_TRACER
        self.outputs: list[tuple[float, Any]] = []   # committed outputs
        # Called with no arguments after outputs are appended (once per
        # emitting step or stability sweep).  A live service port sets it
        # to learn that replies exist; the simulator never does.
        self.output_listener: Callable[[], None] | None = None
        # Periodic-task state (see start_periodic_tasks), in firing-setup
        # order: checkpoints, log flushes, stability gossip.
        self._periodic_enabled = False
        self._periodic = (
            _Periodic("take_checkpoint", "checkpoint_interval",
                      f"ckpt:{self.pid}"),
            _Periodic("flush_log", "flush_interval", f"flush:{self.pid}"),
            _Periodic("gossip_tick", "gossip_interval", f"gossip:{self.pid}"),
        )
        # Postponed messages (volatile): see _postpone / _release_held.
        self._held: list[NetworkMessage] = []
        env.attach(self)

    # ------------------------------------------------------------------
    # Lifecycle hooks (environment-facing)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Bootstrap, then checkpoint 0 and the periodic tasks.

        Checkpoint 0 is taken after bootstrap so a restart never needs to
        re-run the (unreplayable) initial sends.
        """
        self._finish_step(self.executor.bootstrap())
        self.take_checkpoint()
        self.start_periodic_tasks()

    @abc.abstractmethod
    def on_network_message(self, msg: NetworkMessage) -> None: ...

    def on_crash(self) -> None:
        """Lose the volatile state: the unflushed log suffix and the held
        messages.  Protocols extend it with their own."""
        self.storage.on_crash()
        self._held.clear()

    @abc.abstractmethod
    def on_restart(self) -> None: ...

    # ------------------------------------------------------------------
    # Recovery steps, called by each protocol in its own order
    # ------------------------------------------------------------------
    def _finish_step(
        self, ctx: ProcessContext, *, replay: bool = False
    ) -> None:
        """Hand on the sends and outputs of one application step."""
        for send in ctx.sends:
            self._send_app(send.dst, send.payload, transmit=not replay)
        if ctx.outputs:
            self.emit_outputs(ctx.outputs, replay=replay)

    def _send_app(self, dst: int, payload: Any, *, transmit: bool) -> None:
        """Wrap one application send in the protocol's envelope and send it.

        ``transmit=False`` marks a send regenerated by replay, which the
        failed incarnation already put on the wire: the protocol advances
        its sequence numbers and clock exactly as the original did but
        sends nothing (a protocol that resends replayed sends ignores it).
        """
        raise NotImplementedError

    def _replay(self, payload: Any, msg_id: int, uid: StateUid) -> None:
        """Re-execute one logged receive under its original state uid."""
        self.stats.replayed += 1
        ctx = self.executor.execute(
            payload, msg_id=msg_id, replay=True, uid=uid
        )
        self._finish_step(ctx, replay=True)

    def _replay_entry(self, entry: Any) -> None:
        """Replay one stable log entry: reinstate what the protocol logged
        in ``entry.meta``, then :meth:`_replay` it."""
        raise NotImplementedError

    def _replay_log(
        self, position: int, stop: Callable[[Any], bool] | None = None
    ) -> int:
        """Replay the stable log from ``position`` up to the first entry
        ``stop`` accepts (a rollback's orphan point), or to its end;
        returns how many entries were replayed."""
        replayed = 0
        for entry in self.storage.log.stable_entries(position):
            if stop is not None and stop(entry):
                break
            self._replay_entry(entry)
            replayed += 1
        return replayed

    def _restore(self, ckpt: Any, reason: str) -> None:
        """Record ``RESTORE`` (``reason`` is ``"restart"`` or
        ``"rollback"``), then load ``ckpt``.  The ground truth reads the
        event as the start of a replay, so it comes first."""
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.RESTORE,
                self.pid,
                ckpt_uid=ckpt.snapshot["uid"],
                reason=reason,
            )
        self._restore_checkpoint(ckpt)

    def _restore_checkpoint(self, ckpt: Any) -> None:
        """Load a checkpoint: the executor snapshot here, and in each
        protocol the state its :meth:`checkpoint_extras` saved."""
        self.executor.restore(ckpt.snapshot)

    def _restarted(self, epoch: int, replayed: int, **fields: Any) -> None:
        """Begin the post-failure incarnation (the executor's ``epoch``)
        and record ``RESTART`` with the protocol's extra ``fields``."""
        restored_uid = self.executor.begin_incarnation(
            self.env.crash_count, epoch
        )
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.RESTART,
                self.pid,
                restored_uid=restored_uid,
                new_uid=self.executor.current_uid,
                replayed=replayed,
                **fields,
            )

    def _rolled_back(
        self,
        origin: int,
        version: int,
        timestamp: int,
        *,
        replayed: int = 0,
        discarded: int = 0,
        failure: tuple[int, int] | None = None,
    ) -> None:
        """Mint the post-rollback state, count the rollback against
        ``failure`` (default ``(origin, version)``) and record
        ``ROLLBACK``."""
        restored_uid = self.executor.new_recovery_state()
        self.stats.note_rollback(*(failure or (origin, version)))
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.ROLLBACK,
                self.pid,
                origin=origin,
                version=version,
                timestamp=timestamp,
                restored_uid=restored_uid,
                new_uid=self.executor.current_uid,
                replayed=replayed,
                discarded_log_entries=discarded,
            )

    def _discard(self, msg: NetworkMessage, reason: str) -> None:
        """Drop an application message: a ``"duplicate"`` of one already
        delivered, or ``"obsolete"`` (sent from a state recovery undid)."""
        if reason == "duplicate":
            self.stats.duplicates_discarded += 1
        else:
            self.stats.app_discarded += 1
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.DISCARD,
                self.pid,
                msg_id=msg.msg_id,
                reason=reason,
            )

    def _postpone(self, msg: NetworkMessage, awaiting: Any) -> None:
        """Hold a message until the recovery knowledge it awaits arrives."""
        self._held.append(msg)
        self.stats.app_postponed += 1
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.POSTPONE,
                self.pid,
                msg_id=msg.msg_id,
                awaiting=awaiting,
            )

    def _release_held(self) -> None:
        """Hand every held message to the protocol's ``_receive_app``
        again, now that new recovery knowledge arrived."""
        held, self._held = self._held, []
        for msg in held:
            self._receive_app(msg)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Periodic activities
    # ------------------------------------------------------------------
    def start_periodic_tasks(self) -> None:
        """Kick off checkpointing and log flushing.  Call from on_start.

        Chains that are already running are left alone, so a restart path
        that fell back to ``on_start`` (nothing durable to restore) can be
        followed by an unconditional call without doubling the timers.
        """
        self._periodic_enabled = True
        for chain in self._periodic:
            if chain.handle is None and self._wanted(chain):
                self._arm(chain)

    def halt_periodic_tasks(self) -> None:
        """Stop the periodic activities for good (end of experiment).

        The flag alone suffices: each chain's next fire sees it and stops
        without rescheduling.  (Tombstoning the pending timers instead
        would change where the drain phase quiesces.)
        """
        self._periodic_enabled = False

    def pause_periodic_tasks(self) -> None:
        """Suspend the periodic chains (the environment calls this when the
        process crashes -- a dead process must not run protocol timers)."""
        for chain in self._periodic:
            if chain.handle is not None:
                chain.paused = self.env.suspend_timer(
                    chain.handle,
                    getattr(self.config, chain.interval),
                    label=chain.label,
                )
                chain.handle = None

    def resume_periodic_tasks(self) -> None:
        """Resume chains paused by :meth:`pause_periodic_tasks`, preserving
        their phase: fire times are exactly those the never-paused chain
        would have used (minus the fires that fell inside the downtime,
        which would have done no work)."""
        suspended = [(chain, chain.paused) for chain in self._periodic]
        for chain in self._periodic:
            chain.paused = None
        if not self._periodic_enabled:
            # Halted while down: abandon the suspended chains.
            for _, paused in suspended:
                if paused is not None:
                    paused.cancel()
            return
        for chain, paused in suspended:
            if paused is not None:
                chain.handle = self.env.resume_timer(
                    paused,
                    getattr(self.config, chain.interval),
                    partial(self._fire, chain),
                    label=chain.label,
                )
        # A chain that was not running at the crash stays off: the
        # protocol never started it (sender-based logging keeps its
        # receiver log volatile between checkpoints).

    def _wanted(self, chain: _Periodic) -> bool:
        return getattr(self.config, chain.interval) is not None

    def _arm(self, chain: _Periodic) -> None:
        chain.handle = self.env.schedule_after(
            getattr(self.config, chain.interval),
            partial(self._fire, chain),
            label=chain.label,
        )

    def _fire(self, chain: _Periodic) -> None:
        chain.handle = None
        if not self._periodic_enabled or not self.env.alive:
            return
        # Looked up on the instance at every fire: subclasses and harness
        # wrappers override take_checkpoint / flush_log / gossip_tick.
        getattr(self, chain.action)()
        self._arm(chain)

    def gossip_tick(self) -> None:
        """One stability-gossip round.  Protocols that support the
        Section 6.5 extensions override this (see DamaniGargProcess);
        the default is a no-op so the timer chain stays harmless."""

    # ------------------------------------------------------------------
    # Storage helpers (subclasses may extend)
    # ------------------------------------------------------------------
    def take_checkpoint(self) -> None:
        """Default checkpoint: flush the log, save the executor snapshot.

        Subclasses override to add protocol state (clock, history, ...) via
        :meth:`checkpoint_extras`.  The flush and the checkpoint land as
        one durable step.
        """
        with self.storage.atomic():
            self.flush_log()
            with self.obs.span("proto.checkpoint_wall_s"):
                ckpt = self.storage.checkpoints.take(
                    self.env.now,
                    self.executor.snapshot(),
                    self.storage.log.stable_length,
                    extras=self.checkpoint_extras(),
                )
        self.obs.counter("proto.checkpoints")
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.CHECKPOINT,
                self.pid,
                ckpt_id=ckpt.ckpt_id,
                uid=self.executor.current_uid,
                log_position=ckpt.log_position,
            )

    def checkpoint_extras(self) -> dict[str, Any]:
        """Protocol state saved alongside each checkpoint."""
        return {}

    def flush_log(self) -> int:
        log = self.storage.log
        moved = log.flush()
        if moved:
            self.obs.counter("proto.log_flushes")
            self.obs.counter("proto.log_entries_flushed", moved)
            if self.trace is not None:
                self.trace.record(
                    self.env.now,
                    EventKind.LOG_FLUSH,
                    self.pid,
                    moved=moved,
                    stable_length=log.stable_length,
                )
        return moved

    # ------------------------------------------------------------------
    # Output handling
    # ------------------------------------------------------------------
    def emit_outputs(self, records: list[OutputRecord], *, replay: bool) -> None:
        """Record application outputs to the environment.

        Replayed transitions regenerate outputs that were already emitted;
        they are suppressed, matching the suppression of replayed sends.
        """
        if replay:
            return
        for rec in records:
            self.outputs.append((self.env.now, rec.value))
            if self.trace is not None:
                self.trace.record(
                    self.env.now,
                    EventKind.OUTPUT,
                    self.pid,
                    value=rec.value,
                    uid=self.executor.current_uid,
                )
        if records and self.output_listener is not None:
            self.output_listener()

    # ------------------------------------------------------------------
    # Introspection used by the comparison harness
    # ------------------------------------------------------------------
    def piggyback_entry_count(self) -> int:
        """Scalar timestamps this protocol attaches to one app message.

        The Table 1 "number of timestamps in vector clock" column; measured,
        not declared, where the size varies (Smith-Johnson-Tygar grows with
        failures).
        """
        return 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} pid={self.pid}>"
