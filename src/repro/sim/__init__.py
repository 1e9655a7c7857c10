"""Deterministic discrete-event simulation substrate.

This package provides everything the recovery protocols run on top of:

- :mod:`repro.sim.kernel` -- the event-queue simulator (virtual time).
- :mod:`repro.sim.rng` -- named, independent, seeded random streams.
- :mod:`repro.sim.network` -- point-to-point channels with configurable
  ordering (FIFO or arbitrary), latency models, partitions, and a reliable
  broadcast used for recovery tokens.
- :mod:`repro.sim.env` -- :class:`SimEnv` (alias :class:`ProcessHost`),
  one simulated process: the simulation implementation of the
  engine-agnostic :class:`repro.runtime.RuntimeEnv` protocols run on, and
  the owner of the process's liveness and crash/restart mechanics.
- :mod:`repro.sim.failures` -- crash and partition injection.

The application model, the trace model and the wire envelope are
re-exported from :mod:`repro.runtime`, their canonical home.
"""

from repro.runtime.app import Application, ProcessContext, SendRecord
from repro.runtime.trace import EventKind, SimTrace, TraceEvent
from repro.sim.env import ProcessHost, SimEnv
from repro.sim.failures import CrashPlan, FailureInjector, PartitionPlan
from repro.sim.kernel import Event, EventHandle, Simulator
from repro.sim.network import (
    DeliveryOrder,
    LatencyModel,
    Network,
    NetworkMessage,
    UniformLatency,
)
from repro.sim.rng import RandomStreams

__all__ = [
    "Application",
    "SimEnv",
    "CrashPlan",
    "DeliveryOrder",
    "Event",
    "EventHandle",
    "EventKind",
    "FailureInjector",
    "LatencyModel",
    "Network",
    "NetworkMessage",
    "PartitionPlan",
    "ProcessContext",
    "ProcessHost",
    "RandomStreams",
    "SendRecord",
    "SimTrace",
    "Simulator",
    "TraceEvent",
    "UniformLatency",
]
