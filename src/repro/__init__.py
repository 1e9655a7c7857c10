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

Every name below resolves on first use: ``import repro`` loads no
subpackage, so a live node never imports the simulator, the oracles or
the harness it does not run.
"""

import importlib
from typing import Any, Callable


def _lazy_exports(
    namespace: dict[str, Any], exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the package whose
    globals are ``namespace``: each name of ``exports`` maps to the module
    that defines it, which is imported on the name's first read, and the
    value is cached in ``namespace``.  ``dir()`` lists every exported
    name, loaded or not.  ``repro`` and its lazy subpackage roots
    (``protocols``, ``live``, ``obs``, ``service``, ``apps``) bind their
    two hooks here."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__version__ = "2.0.0"

#: Each public name and the module that defines it.
_EXPORTS = {
    "AppEnvelope": "repro.core.recovery",
    "Application": "repro.runtime.app",
    "BaseRecoveryProcess": "repro.protocols.base",
    "ClockEntry": "repro.core.ftvc",
    "CrashPlan": "repro.sim.failures",
    "DamaniGargProcess": "repro.core.recovery",
    "DeliveryOrder": "repro.sim.network",
    "EventKind": "repro.runtime.trace",
    "ExperimentResult": "repro.harness.runner",
    "ExperimentSpec": "repro.harness.runner",
    "FailureInjector": "repro.sim.failures",
    "FaultTolerantVectorClock": "repro.core.ftvc",
    "History": "repro.core.history",
    "HistoryRecord": "repro.core.history",
    "LiveEnv": "repro.live.env",
    "Network": "repro.sim.network",
    "NetworkMessage": "repro.runtime.message",
    "NullTracer": "repro.obs.tracer",
    "PartitionPlan": "repro.sim.failures",
    "ProcessContext": "repro.runtime.app",
    "ProcessHost": "repro.sim.env",
    "ProtocolConfig": "repro.protocols.base",
    "ProtocolStats": "repro.protocols.base",
    "RecordKind": "repro.core.history",
    "RecoveryToken": "repro.core.tokens",
    "RuntimeEnv": "repro.runtime.env",
    "SimEnv": "repro.sim.env",
    "SimTrace": "repro.runtime.trace",
    "Simulator": "repro.sim.kernel",
    "TimerHandle": "repro.runtime.env",
    "TraceEvent": "repro.runtime.trace",
    "Tracer": "repro.obs.tracer",
    "run_experiment": "repro.harness.runner",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
