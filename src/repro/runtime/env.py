"""The narrow substrate interface every recovery protocol runs against.

:class:`RuntimeEnv` is the complete list of powers a protocol process has:
it can read a clock, send and broadcast messages, set timers, touch its
stable storage, record ground-truth trace events, observe metrics, and ask
whether it is alive and how many times it has crashed.  Nothing else.

Keeping the surface this narrow is what makes the protocols portable: the
same :class:`~repro.core.recovery.DamaniGargProcess` object runs unchanged
under the deterministic discrete-event simulator
(:class:`repro.sim.env.SimEnv`) and over real TCP sockets with real SIGKILL
crashes (:class:`repro.live.env.LiveEnv`).

Design notes
------------

- ``now`` is *environment time*: virtual time under the simulator, seconds
  since the cluster epoch under the live runtime.  Protocols may compare
  and subtract it but must never assume a unit.
- ``crash_count`` must be durable and monotone across failures -- protocols
  use it as the incarnation tag for fresh state uids.
- ``schedule_after`` is the only timer primitive.  A periodic chain is
  one timer that re-arms itself at every fire, also while the simulator
  holds its process down (the fire then does no work).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Protocol, runtime_checkable

from repro.runtime.message import NetworkMessage
from repro.runtime.trace import SimTrace


@runtime_checkable
class TimerHandle(Protocol):
    """Handle for a pending timer: cancellable, with its deadline."""

    @property
    def time(self) -> float:
        """Environment time at which the timer fires (or would have)."""
        ...

    @property
    def cancelled(self) -> bool: ...

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""
        ...


class RuntimeEnv(abc.ABC):
    """Everything one protocol process may touch in its substrate.

    Concrete attributes (set by implementations):

    ``pid`` / ``n``
        This process's id and the system size.
    ``storage``
        The process's :class:`~repro.storage.stable.StableStorage` (or a
        durable subclass); survives crashes by construction.
    ``trace``
        The ground-truth :class:`~repro.runtime.trace.SimTrace` sink, or
        ``None`` when tracing is disabled.
    """

    pid: int
    n: int
    storage: Any
    trace: SimTrace | None

    # ------------------------------------------------------------------
    # Clock, liveness, observability
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current environment time."""

    @property
    @abc.abstractmethod
    def alive(self) -> bool:
        """Is this process currently up?  (Always true from inside a live
        OS process; the simulator models downtime explicitly.)"""

    @property
    @abc.abstractmethod
    def crash_count(self) -> int:
        """Durable number of failures so far (the incarnation tag)."""

    @property
    @abc.abstractmethod
    def tracer(self) -> Any | None:
        """The attached :class:`repro.obs.Tracer`, or ``None``."""

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def send(
        self,
        dst: int,
        payload: Any,
        *,
        kind: str = "app",
        latency: float | None = None,
    ) -> NetworkMessage:
        """Send ``payload`` to ``dst``; returns the wire envelope.

        ``latency`` overrides the transport's latency model where the
        transport supports it (the simulator's scripted scenarios); live
        transports ignore it.
        """

    @abc.abstractmethod
    def broadcast(
        self,
        payload: Any,
        *,
        kind: str = "token",
        include_self: bool = False,
    ) -> list[NetworkMessage]:
        """Send ``payload`` to every process (optionally including self)."""

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        label: str = "",
    ) -> TimerHandle:
        """Run ``callback`` after ``delay`` environment-time units.

        ``label`` is observability metadata.
        """

    # ------------------------------------------------------------------
    # Protocol attachment
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def attach(self, protocol: Any) -> None:
        """Register the protocol instance that receives this environment's
        lifecycle and message callbacks.  One protocol per environment."""
