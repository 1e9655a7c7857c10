"""Run-wide observability: live tracer, exporters, named scenarios.

See ``docs/OBSERVABILITY.md`` for the metric-name catalogue and file
formats.  Quick tour::

    from repro.obs import Tracer
    from repro.harness.runner import run_experiment

    spec = ...                      # any ExperimentSpec
    spec.tracer = Tracer()
    result = run_experiment(spec)
    spec.tracer.counter_value("dg.tokens_broadcast")   # live counters

Attaching a tracer never changes a seeded run's event order -- the
determinism tests pin this down.

The scenario helpers are lazy attributes: the substrate
(``protocols.base``) imports this package for :data:`NULL_TRACER`, and
eagerly importing the harness-dependent pieces here would close an import
cycle.
"""

from typing import Any

from repro.obs.export import MetricsReport, write_jsonl
from repro.obs.tracer import (
    NULL_TRACER,
    GaugeSeries,
    Histogram,
    NullTracer,
    Tracer,
)

__all__ = [
    "GaugeSeries",
    "Histogram",
    "MetricsReport",
    "NULL_TRACER",
    "NullTracer",
    "SCENARIOS",
    "Tracer",
    "build_scenario",
    "write_jsonl",
]

_LAZY = {
    "SCENARIOS": "repro.obs.scenarios",
    "build_scenario": "repro.obs.scenarios",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
