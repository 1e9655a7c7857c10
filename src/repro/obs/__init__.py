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

The exporters and scenario helpers are lazy attributes: the substrate
(``protocols.base``) imports this package for :data:`NULL_TRACER`, so
every live node loads it, and eagerly importing the harness-dependent
pieces here would close an import cycle.
"""

from repro import _lazy_exports
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

__getattr__, __dir__ = _lazy_exports(globals(), {
    "MetricsReport": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "SCENARIOS": "repro.obs.scenarios",
    "build_scenario": "repro.obs.scenarios",
})
