"""The simulation implementation of :class:`~repro.runtime.env.RuntimeEnv`.

:class:`SimEnv` adapts one :class:`~repro.sim.process.ProcessHost` (and
through it the deterministic kernel and the simulated network) to the
narrow environment interface protocols run against.  It adds nothing: every
method is a one-line delegation, so a protocol running through a ``SimEnv``
is bit-identical to one wired to the host directly -- the conformance suite
pins the trace signatures.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

from repro.runtime.env import RuntimeEnv, TimerHandle
from repro.runtime.message import NetworkMessage
from repro.storage.intents import CrashPointReached
from repro.storage.stable import StableStorage


class SimEnv(RuntimeEnv):
    """One simulated process's runtime environment."""

    def __init__(
        self, host: Any, *, storage: StableStorage | None = None
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.network = host.network
        self.pid: int = host.pid
        self.n: int = host.network.n
        self.trace = host.trace
        self.storage = (
            storage if storage is not None else StableStorage(host.pid)
        )

    # ------------------------------------------------------------------
    # Clock, liveness, observability
    # ------------------------------------------------------------------
    # ``attrgetter`` properties read straight through to the kernel and
    # the host without a Python frame (``now`` is read per trace record).
    now = property(attrgetter("sim.now"))
    alive = property(attrgetter("host.alive"))
    crash_count = property(attrgetter("host.crash_count"))
    tracer = property(attrgetter("sim.tracer"))

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self,
        dst: int,
        payload: Any,
        *,
        kind: str = "app",
        latency: float | None = None,
    ) -> NetworkMessage:
        return self.network.send(
            self.pid, dst, payload, kind=kind, latency=latency
        )

    def broadcast(
        self,
        payload: Any,
        *,
        kind: str = "token",
        include_self: bool = False,
    ) -> list[NetworkMessage]:
        return self.network.broadcast(
            self.pid, payload, kind=kind, include_self=include_self
        )

    # ------------------------------------------------------------------
    # Crash points (fault injection)
    # ------------------------------------------------------------------
    def on_crash_point(self, exc: CrashPointReached) -> None:
        """Convert an armed crash point into a crash + scheduled restart."""
        self.host.on_crash_point(exc)

    def _run_timer(self, callback: Callable[[], None]) -> None:
        """Fire a timer callback; a crash point raised inside it (a
        periodic checkpoint/flush hitting an armed point) crashes the
        process instead of unwinding the kernel."""
        try:
            callback()
        except CrashPointReached as exc:
            self.host.on_crash_point(exc)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> TimerHandle:
        return self.sim.schedule(
            delay, self._run_timer, callback, priority=priority, label=label
        )

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> TimerHandle:
        # Exact absolute-time scheduling: ``now + (when - now)`` in float
        # arithmetic can miss ``when`` by an ulp, which would shift resumed
        # periodic chains off their historical fire times.
        return self.sim.schedule_at(
            when, self._run_timer, callback, priority=priority, label=label
        )

    def suspend_timer(
        self,
        handle: TimerHandle,
        interval: float,
        *,
        label: str = "",
    ) -> TimerHandle:
        # Deterministic suspension: instead of cancelling the pending
        # event, hand it to a phase keeper that keeps the chain ticking
        # (callback-free) at its historical instants while the owner is
        # down.  Every event the chain would have minted is still minted
        # at the same virtual instant, so the kernel's (time, priority,
        # seq) order -- and therefore the trace signature -- is identical
        # to a run where the owner stayed attached throughout.
        keeper = _SimPhaseKeeper(self.sim, handle, interval, label)
        self.sim.retarget(handle, keeper._tick)
        return keeper

    def resume_timer(
        self,
        handle: TimerHandle,
        interval: float,
        callback: Callable[[], None],
        *,
        label: str = "",
    ) -> TimerHandle:
        if not isinstance(handle, _SimPhaseKeeper):
            # Chains suspended before this env existed (or by generic
            # code) fall back to the phase-preserving reschedule.
            return super().resume_timer(
                handle, interval, callback, label=label
            )
        handle._active = False
        return self.sim.retarget(handle._handle, self._run_timer, callback)

    # ------------------------------------------------------------------
    # Protocol attachment
    # ------------------------------------------------------------------
    def attach(self, protocol: Any) -> None:
        self.host._attach(protocol)


class _SimPhaseKeeper:
    """Holds a suspended periodic chain's place in the event order.

    While active it re-enacts exactly what the chain's own callback would
    have done at each deadline -- schedule the next fire ``interval``
    later, same label -- without running any protocol code.  Resuming
    swaps the owner's callback onto whichever event is currently pending;
    cancelling tombstones it.
    """

    __slots__ = ("_sim", "_handle", "_interval", "_label", "_active")

    def __init__(
        self, sim: Any, handle: Any, interval: float, label: str
    ) -> None:
        self._sim = sim
        self._handle = handle
        self._interval = interval
        self._label = label
        self._active = True

    time = property(attrgetter("_handle.time"))
    cancelled = property(attrgetter("_handle.cancelled"))

    def cancel(self) -> None:
        self._active = False
        self._handle.cancel()

    def _tick(self) -> None:
        if not self._active:
            return
        self._handle = self._sim.schedule(
            self._interval, self._tick, label=self._label
        )
