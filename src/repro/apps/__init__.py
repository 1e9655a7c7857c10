"""Piecewise-deterministic applications used as workloads.

Every application here obeys the paper's Section 3 model: ``handle`` is a
pure function of ``(state, payload)`` -- no clocks, no randomness, no I/O --
so replay from a checkpoint reconstructs states exactly.  "Randomness" in
the routing workloads is a deterministic integer mix of the state and the
received value, which gives irregular communication patterns while staying
replayable.

- :class:`~repro.apps.applications.RandomRoutingApp` -- hop-bounded chaotic
  routing; the workhorse for protocol comparisons.
- :class:`~repro.apps.applications.PingPongApp` -- paired counters, the
  simplest possible two-process workload.
- :class:`~repro.apps.applications.BankApp` -- money transfers with a
  conservation invariant (sum of balances + in-flight = constant), used by
  the consistency examples.
- :class:`~repro.apps.applications.PipelineApp` -- a staged pipeline with
  environment outputs at the sink (output-commit demo).

The kvstore names resolve lazily: :mod:`repro.apps.kvstore` imports its
wire types from :mod:`repro.service.kv`, and that module in turn depends
on :mod:`repro.apps.applications` -- resolving kvstore at first attribute
access instead of package-import time keeps the cycle open.
"""

from repro.apps.applications import (
    BankApp,
    BankState,
    PingPongApp,
    PipelineApp,
    RandomRoutingApp,
    RoutingState,
    Transfer,
    WorkItem,
    mix64,
)

__all__ = [
    "BankApp",
    "BankState",
    "ClientState",
    "KVStoreApp",
    "PingPongApp",
    "PipelineApp",
    "RandomRoutingApp",
    "ReplicaState",
    "RoutingState",
    "Transfer",
    "WorkItem",
    "mix64",
]

#: Resolved lazily (cycle: kvstore -> service.kv -> apps.applications ->
#: this package).
_KVSTORE_NAMES = frozenset({"ClientState", "KVStoreApp", "ReplicaState"})


def __getattr__(name: str):
    if name in _KVSTORE_NAMES:
        import repro.apps.kvstore as kvstore

        return getattr(kvstore, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
