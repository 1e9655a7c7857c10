"""The collector pause around a run phase, and why it is sound.

:func:`repro.runtime.collector.collector_paused` keeps the automatic
cyclic collector off for a whole simulation, a live node's run phase and a
trace merge, and ends the scope with one young collection.  That is only
sound while the paused code makes next to no cyclic garbage, which the
engine tests below bound.

What the collector reclaims in a whole ``sim_steady`` worker process
(121-140 objects, with or without the pause) is import-time debris that
exists before any run starts: the classes that ``dataclass(slots=True)``
and ``IntEnum._convert_`` build and then replace (``NetworkMessage``,
``signal.Signals``, ``socket.AddressFamily``, the ``ssl`` flag enums),
with their ``__dict__``/``__weakref__`` descriptors, and the
``enum.auto()`` placeholders of class bodies.  The run itself makes none.
A run keeps its network, hosts and protocols in one reference cycle, but
that cycle is alive as long as the result is.
"""

import gc

import pytest

from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.obs import Tracer
from repro.runtime.collector import collections_so_far, collector_paused
from repro.stress import PROFILES, generate_case
from repro.stress.generate import build_spec

#: Objects a live node's end-of-run full collection may reclaim: what
#: the interpreter's imports left in cycles (28-56 on Python 3.10, 5-36
#: on 3.11, 0-9 on 3.12; 22 for 32 jobs and for 3000), and nothing per
#: delivery.
LIVE_RECLAIMED_MAX = 100


class _Collections:
    """``gc.callbacks`` entry: (generation, collected) per collection."""

    def __init__(self):
        self.seen = []

    def __call__(self, phase, info):
        if phase == "stop":
            self.seen.append((info["generation"], info["collected"]))

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def test_the_outermost_scope_disables_then_collects_young_once():
    assert gc.isenabled()
    with _Collections() as log:
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            assert log.seen == []
        assert gc.isenabled()
    assert [generation for generation, _ in log.seen] == [1]


def test_a_collector_that_was_off_stays_off():
    gc.disable()
    try:
        with collector_paused():
            pass
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_the_collector_comes_back_after_an_exception():
    with pytest.raises(RuntimeError):
        with collector_paused():
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_a_bound_tracer_attributes_collections_per_generation():
    tracer = Tracer()
    hooks = list(gc.callbacks)
    with collector_paused(tracer):
        gc.collect(0)
    assert gc.callbacks == hooks
    assert tracer.counter_value("gc.collections.gen0") == 1
    assert tracer.counter_value("gc.collections.gen1") == 1
    assert tracer.histograms["gc.pause_wall_s.gen1"].count == 1


def test_a_traced_simulation_runs_no_collection_but_its_exit_one():
    tracer = Tracer()
    spec = _steady_spec(hops=20)
    spec.tracer = tracer
    result = ExperimentResult.build(spec)
    before = collections_so_far()
    result.run()
    assert collections_so_far() - before == 1
    assert {
        name: value for name, value in tracer.counters.items()
        if name.startswith("gc.")
    } == {"gc.collections.gen1": 1}


def _steady_spec(hops):
    """``benchmarks/perf/sim_steady``'s run at a smaller hop count."""
    return ExperimentSpec(
        n=16,
        app=RandomRoutingApp(
            hops=hops, seeds=tuple(range(16)), initial_items=2
        ),
        protocol=DamaniGargProcess,
        seed=0,
        horizon=hops * 1.5 + 10.0,
    )


@pytest.mark.parametrize(
    "build",
    [
        # Heavy-profile stress schedules: 32 crashes and 34 rollbacks;
        # 24 crashes, 26 rollbacks and GC sweeps.
        lambda: build_spec(generate_case(7, PROFILES["heavy"])),
        lambda: build_spec(generate_case(23, PROFILES["heavy"])),
        lambda: _steady_spec(hops=120),
    ],
    ids=["stress-heavy-7", "stress-heavy-23", "sim-steady"],
)
def test_a_simulation_makes_at_most_one_cyclic_object_per_100_deliveries(
    build,
):
    spec = build()
    gc.collect()
    with _Collections() as log:
        result = run_experiment(spec)
        # The result stays alive: its own cycle is not garbage.
        after = gc.collect()
    delivered = result.total_delivered
    assert delivered > 0
    if spec.crashes is not None:
        assert result.total_rollbacks > 0
    reclaimed = sum(collected for _, collected in log.seen)
    assert reclaimed <= delivered // 100, (reclaimed, after, delivered)
