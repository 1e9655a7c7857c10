"""repro: a full reproduction of Damani & Garg (ICDCS 1996),
"How to Recover Efficiently and Asynchronously when Optimism Fails".

Public API tour
---------------

The paper's contribution::

    from repro import (
        FaultTolerantVectorClock,   # Section 4 / Figure 2
        History,                    # Section 5 / Figure 3
        RecoveryToken,
        DamaniGargProcess,          # Section 6 / Figure 4
    )

Running an experiment::

    from repro import ExperimentSpec, run_experiment, CrashPlan
    from repro.apps import RandomRoutingApp
    from repro.protocols import ProtocolConfig

    spec = ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=40, seeds=(0, 1)),
        protocol=DamaniGargProcess,
        crashes=CrashPlan().crash(time=20.0, pid=1),
        horizon=80.0,
    )
    result = run_experiment(spec)

Checking it against the ground truth::

    from repro.analysis import check_recovery
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations

Engines
-------

Protocols are written against :class:`~repro.runtime.env.RuntimeEnv`, the
narrow engine interface.  Two engines implement it: :class:`SimEnv`
(deterministic discrete-event simulation, what ``run_experiment`` uses)
and :class:`LiveEnv` (asyncio TCP cluster of real OS processes; see
``python -m repro live`` and ``docs/API.md``).
"""

from repro.core import (
    AppEnvelope,
    ClockEntry,
    DamaniGargProcess,
    FaultTolerantVectorClock,
    History,
    HistoryRecord,
    RecordKind,
    RecoveryToken,
)
from repro.harness import ExperimentResult, ExperimentSpec, run_experiment
from repro.obs import NullTracer, Tracer
from repro.protocols import BaseRecoveryProcess, ProtocolConfig, ProtocolStats
from repro.runtime import (
    Application,
    EventKind,
    NetworkMessage,
    ProcessContext,
    RuntimeEnv,
    SimTrace,
    TimerHandle,
    TraceEvent,
)
from repro.sim import (
    CrashPlan,
    DeliveryOrder,
    FailureInjector,
    Network,
    PartitionPlan,
    ProcessHost,
    SimEnv,
    Simulator,
)


def __getattr__(name: str):
    # repro.live pulls in asyncio machinery; load it only when asked for.
    if name == "LiveEnv":
        from repro.live import LiveEnv

        return LiveEnv
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "2.0.0"

__all__ = [
    "AppEnvelope",
    "Application",
    "BaseRecoveryProcess",
    "ClockEntry",
    "CrashPlan",
    "DamaniGargProcess",
    "DeliveryOrder",
    "EventKind",
    "ExperimentResult",
    "ExperimentSpec",
    "FailureInjector",
    "FaultTolerantVectorClock",
    "History",
    "HistoryRecord",
    "LiveEnv",
    "Network",
    "NetworkMessage",
    "NullTracer",
    "PartitionPlan",
    "ProcessContext",
    "ProcessHost",
    "ProtocolConfig",
    "ProtocolStats",
    "RecordKind",
    "RecoveryToken",
    "RuntimeEnv",
    "SimEnv",
    "SimTrace",
    "Simulator",
    "TimerHandle",
    "TraceEvent",
    "Tracer",
    "run_experiment",
    "__version__",
]
