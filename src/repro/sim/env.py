"""The simulated process: :class:`SimEnv`, the simulation implementation
of :class:`~repro.runtime.env.RuntimeEnv`.

One :class:`SimEnv` is one of the paper's Section 3 processes as the
simulator models it.  It is the environment a protocol runs against
(clock, send/broadcast, timers, stable storage, trace) and the substrate
that owns the process's liveness: while the process is crashed, transport
deliveries are buffered here (the network is reliable) and drained on
restart.  The *volatile memory* lost in a crash belongs to the protocol
object, which clears it in ``on_crash``.  A protocol's periodic chains
keep firing through the downtime and do no work while ``alive`` is false
(see ``BaseRecoveryProcess._fire``).

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
        label: str = "",
    ) -> TimerHandle:
        return self.sim.schedule(delay, callback, label=label)


#: The simulated process under its historical name.
ProcessHost = SimEnv
