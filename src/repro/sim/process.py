"""Simulation-side process container.

The piecewise-deterministic application model (:class:`Application`,
:class:`AppExecutor`, :class:`ProcessContext`, ...) is engine-agnostic and
lives in :mod:`repro.runtime.app`; this module re-exports it for
compatibility and provides the simulation-specific substrate:

- :class:`ProcessHost` -- the container that connects a recovery-protocol
  process to the simulator and network and implements crash/restart
  mechanics (buffering transport deliveries while down).

Protocols do not talk to the host directly any more: they run against the
narrow :class:`~repro.runtime.env.RuntimeEnv` interface, obtained from a
host via :meth:`ProcessHost.runtime_env`.
"""

from __future__ import annotations


from repro.runtime.app import (          # noqa: F401  (compat re-exports)
    Application,
    AppExecutor,
    OutputRecord,
    ProcessContext,
    RecoveryProcess,
    SendRecord,
    StateUid,
)
from repro.runtime.trace import EventKind, SimTrace
from repro.sim.kernel import Simulator
from repro.sim.network import Network, NetworkMessage
from repro.storage.intents import CrashPointReached

__all__ = [
    "Application",
    "AppExecutor",
    "OutputRecord",
    "ProcessContext",
    "ProcessHost",
    "RecoveryProcess",
    "SendRecord",
    "StateUid",
]


class ProcessHost:
    """Substrate container for one simulated process.

    Owns liveness: when the process is crashed, transport deliveries are
    buffered here (the network is reliable) and drained on restart.  The
    *volatile memory* lost in a crash belongs to the protocol object, which
    clears it in ``on_crash``.
    """

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
        self.trace = trace
        self.alive = True
        self.crash_count = 0
        self._protocol: RecoveryProcess | None = None
        self._buffered: list[NetworkMessage] = []
        self._env = None
        network.register(pid, self._on_transport_deliver)

    def runtime_env(self):
        """The :class:`~repro.sim.env.SimEnv` wrapping this host.

        Created on first use and cached; protocols built from this host
        (directly or through the host-passing constructor) all share it.
        """
        if self._env is None:
            from repro.sim.env import SimEnv

            self._env = SimEnv(self)
        return self._env

    def _attach(self, protocol: RecoveryProcess) -> None:
        if self._protocol is not None:
            raise RuntimeError(f"host {self.pid} already has a protocol")
        self._protocol = protocol

    def dismantle(self) -> None:
        """Unhook a finished host from network, protocol and environment
        (see :meth:`ExperimentResult.release`); it can no longer run."""
        self.network.unregister(self.pid)
        self._protocol = None
        self._env = None

    @property
    def protocol(self) -> RecoveryProcess:
        if self._protocol is None:
            raise RuntimeError(f"host {self.pid} has no protocol attached")
        return self._protocol

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        try:
            self.protocol.on_start()
        except CrashPointReached as exc:
            self.on_crash_point(exc)

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
        try:
            self.protocol.on_restart()
        except CrashPointReached as exc:
            # An armed crash point fired mid-restart: the process dies
            # again with the partial image on "disk"; the rescheduled
            # restart heals and retries.
            self.on_crash_point(exc)
            return
        # Resume the periodic chains paused at crash time, preserving their
        # original phase (fire times are exactly those the pre-pause chain
        # would have used).
        resume = getattr(self.protocol, "resume_periodic_tasks", None)
        if resume is not None:
            resume()
        buffered, self._buffered = self._buffered, []
        for i, msg in enumerate(buffered):
            try:
                self.protocol.on_network_message(msg)
            except CrashPointReached as exc:
                # Undelivered drainees go back to the buffer, ahead of
                # anything that arrived while handling this message.
                self._buffered = buffered[i + 1:] + self._buffered
                self.on_crash_point(exc)
                return
        if tracer is not None:
            tracer.gauge(f"host.buffered.p{self.pid}", 0)

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------
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
        try:
            self._protocol.on_network_message(msg)
        except CrashPointReached as exc:
            self.on_crash_point(exc)

    def on_crash_point(self, exc: CrashPointReached) -> None:
        """An armed crash point fired: die here, restart after downtime.

        The protocol raised out of whatever durable step the point
        names, so its in-memory state is mid-transition -- exactly what
        crash semantics require: volatile state is discarded by
        :meth:`crash` and the restart re-derives everything from the
        (partial) stable image, which the startup crawler heals first.
        """
        if self.trace is not None:
            self.trace.record(
                self.sim.now,
                EventKind.CUSTOM,
                self.pid,
                what="crash_point",
                point=exc.point,
            )
        self.crash()
        self.sim.schedule(
            exc.downtime, self.restart, label=f"restart:{self.pid}"
        )
