"""The simulated process: :class:`SimEnv`, the simulation implementation
of :class:`~repro.runtime.env.RuntimeEnv`.

One :class:`SimEnv` is one of the paper's Section 3 processes as the
simulator models it.  It is the environment a protocol runs against
(clock, send/broadcast, timers, stable storage, trace) and the substrate
that owns the process's liveness: while the process is crashed, transport
deliveries are buffered here (the network is reliable) and drained on
restart.  The *volatile memory* lost in a crash belongs to the protocol
object, which clears it in ``on_crash``.

``ProcessHost`` is the same class under its historical name.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

from repro.runtime.app import RecoveryProcess
from repro.runtime.env import RuntimeEnv, TimerHandle
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind, SimTrace
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.storage.stable import StableStorage


class SimEnv(RuntimeEnv):
    """One simulated process: its runtime environment and its host."""

    # Plain attributes, overriding RuntimeEnv's abstract properties:
    # crash() and restart() flip them.
    alive: bool = True
    crash_count: int = 0

    def __init__(
        self,
        pid: int,
        sim: Simulator,
        network: Network,
        trace: SimTrace | None = None,
    ) -> None:
        self.pid = pid
        self.sim = sim
        self.network = network
        self.n: int = network.n
        self.trace = trace
        self.storage = StableStorage(pid)
        self._protocol: RecoveryProcess | None = None
        self._buffered: list[NetworkMessage] = []
        network.register(pid, self._on_transport_deliver)

    # ------------------------------------------------------------------
    # Clock, observability
    # ------------------------------------------------------------------
    # ``attrgetter`` properties read straight through to the kernel
    # without a Python frame (``now`` is read per trace record).
    now = property(attrgetter("sim.now"))
    tracer = property(attrgetter("sim.tracer"))

    # ------------------------------------------------------------------
    # Protocol attachment
    # ------------------------------------------------------------------
    def attach(self, protocol: Any) -> None:
        if self._protocol is not None:
            raise RuntimeError(f"host {self.pid} already has a protocol")
        self._protocol = protocol

    @property
    def protocol(self) -> RecoveryProcess:
        if self._protocol is None:
            raise RuntimeError(f"host {self.pid} has no protocol attached")
        return self._protocol

    def dismantle(self) -> None:
        """Unhook a finished process from network and protocol (see
        :meth:`ExperimentResult.release`); it can no longer run."""
        self.network.unregister(self.pid)
        self._protocol = None

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

    def _on_transport_deliver(self, msg: NetworkMessage) -> None:
        if not self.alive:
            self._buffered.append(msg)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.counter("host.deliveries_buffered")
                tracer.gauge(
                    f"host.buffered.p{self.pid}", len(self._buffered)
                )
            return
        self._protocol.on_network_message(msg)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.protocol.on_start()

    def crash(self) -> None:
        """Fail the process: volatile state is lost, delivery pauses."""
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter("host.crashes")
            tracer.event("host.crash", pid=self.pid, count=self.crash_count)
        if self.trace is not None:
            self.trace.record(
                self.sim.now, EventKind.CRASH, self.pid, count=self.crash_count
            )
        self.protocol.on_crash()
        # A dead process has no timers: stop the protocol's periodic
        # checkpoint/flush chains instead of letting them churn in the
        # kernel for the whole downtime.
        pause = getattr(self.protocol, "pause_periodic_tasks", None)
        if pause is not None:
            pause()

    def restart(self) -> None:
        """Bring the process back; the protocol runs its restart logic,
        then buffered transport deliveries are drained in arrival order."""
        if self.alive:
            return
        self.alive = True
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter("host.restarts")
            tracer.event(
                "host.restart", pid=self.pid, buffered=len(self._buffered)
            )
        self.protocol.on_restart()
        # Resume the periodic chains paused at crash time, preserving their
        # original phase (fire times are exactly those the pre-pause chain
        # would have used).
        resume = getattr(self.protocol, "resume_periodic_tasks", None)
        if resume is not None:
            resume()
        buffered, self._buffered = self._buffered, []
        for msg in buffered:
            self.protocol.on_network_message(msg)
        if tracer is not None:
            tracer.gauge(f"host.buffered.p{self.pid}", 0)

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
            delay, callback, priority=priority, label=label
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
            when, callback, priority=priority, label=label
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
        handle._active = False
        return self.sim.retarget(handle._handle, callback)


#: The simulated process under its historical name.
ProcessHost = SimEnv


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
