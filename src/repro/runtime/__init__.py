"""Engine-agnostic runtime surface for recovery protocols.

This package is the *only* substrate a protocol implementation may touch:
:class:`RuntimeEnv` (send/broadcast, timers, virtual-or-wall time, stable
storage, liveness, tracing) plus the engine-neutral data model that rides
on it -- the wire envelope (:class:`NetworkMessage`), the ground-truth
event trace (:class:`SimTrace`), and the piecewise-deterministic
application model (:class:`Application` / :class:`AppExecutor`).

Two implementations exist:

- :class:`repro.sim.env.SimEnv` -- one simulated process under the
  discrete-event kernel (the conformance suite pins its trace signatures);
- :class:`repro.live.env.LiveEnv` -- an asyncio TCP runtime where each
  process is a real OS process with file-backed stable storage and crashes
  are real SIGKILLs.

Nothing in this package may import :mod:`repro.sim` or :mod:`repro.live`;
the layering guard test enforces it.
"""

from repro.runtime.app import (
    Application,
    AppExecutor,
    OutputRecord,
    ProcessContext,
    RecoveryProcess,
    SendRecord,
    StateUid,
)
from repro.runtime.env import RuntimeEnv, TimerHandle
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind, SimTrace, TraceEvent

__all__ = [
    "AppExecutor",
    "Application",
    "EventKind",
    "NetworkMessage",
    "OutputRecord",
    "ProcessContext",
    "RecoveryProcess",
    "RuntimeEnv",
    "SendRecord",
    "SimTrace",
    "StateUid",
    "TimerHandle",
    "TraceEvent",
]
