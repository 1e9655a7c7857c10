"""Named reference scenarios for the ``trace`` CLI command.

Each scenario is a zero-argument-friendly builder returning a fresh
:class:`~repro.harness.runner.ExperimentSpec`; the CLI attaches a tracer
and runs it.  They are deliberately small, seeded and deterministic so
two traces of one scenario are comparable line by line.

- ``quickstart``    -- the README quickstart run: 4 processes, one crash;
- ``failure-free``  -- same workload, no failures (the paper's "zero
  control messages when failure-free" regime);
- ``crash-storm``   -- 6 processes, repeated and concurrent crashes;
- ``partition``     -- a crash inside a network partition;
- ``scale``         -- 16 processes, two crashes, the heaviest of the set;
- ``stress-mix``    -- one schedule drawn from the randomized stress
  generator (crash bursts, partitions, duplicates), pinned to a seed so
  the adversarial regime also gets a stable trace.
"""

from __future__ import annotations

from typing import Callable

from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan, PartitionPlan


def _config() -> ProtocolConfig:
    return ProtocolConfig(checkpoint_interval=8.0, flush_interval=2.5)


def quickstart(seed: int = 7) -> ExperimentSpec:
    return ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=50, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=CrashPlan().crash(time=20.0, pid=1, downtime=2.0),
        horizon=100.0,
        seed=seed,
        config=_config(),
    )


def failure_free(seed: int = 7) -> ExperimentSpec:
    return ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=50, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=None,
        horizon=100.0,
        seed=seed,
        config=_config(),
    )


def crash_storm(seed: int = 3) -> ExperimentSpec:
    return ExperimentSpec(
        n=6,
        app=RandomRoutingApp(hops=60, seeds=(0, 1, 2), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=(
            CrashPlan()
            .crash(15.0, 1, 2.0)
            .crash(15.5, 4, 3.0)     # concurrent with pid 1's outage
            .crash(40.0, 2, 2.0)
            .crash(60.0, 1, 2.0)     # second failure of the same process
        ),
        horizon=100.0,
        seed=seed,
        config=_config(),
    )


def partition(seed: int = 5) -> ExperimentSpec:
    return ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=50, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=CrashPlan().crash(25.0, 2, 2.0),
        partitions=PartitionPlan().partition(
            20.0, [(0, 1), (2, 3)], heal_time=35.0
        ),
        horizon=100.0,
        seed=seed,
        config=_config(),
    )


def scale(seed: int = 3) -> ExperimentSpec:
    return ExperimentSpec(
        n=16,
        app=RandomRoutingApp(hops=60, seeds=tuple(range(4)), initial_items=2),
        protocol=DamaniGargProcess,
        crashes=CrashPlan().crash(20.0, 5, 2.0).crash(45.0, 11, 2.0),
        horizon=100.0,
        seed=seed,
        config=_config(),
    )


def stress_mix(seed: int = 55) -> ExperimentSpec:
    """One generated adversarial schedule, via the stress harness.

    The default seed picks a case that mixes concurrent crashes with
    duplicate injection -- historically the regime that found real
    protocol bugs -- so its trace tracks the cost of recovery under
    compounded failures rather than a hand-picked plan.
    """
    from repro.stress.generate import build_spec, generate_case
    from repro.stress.profiles import DEFAULT_PROFILE

    return build_spec(generate_case(seed, DEFAULT_PROFILE))


SCENARIOS: dict[str, Callable[..., ExperimentSpec]] = {
    "quickstart": quickstart,
    "failure-free": failure_free,
    "crash-storm": crash_storm,
    "partition": partition,
    "scale": scale,
    "stress-mix": stress_mix,
}


def build_scenario(name: str, seed: int | None = None) -> ExperimentSpec:
    """Instantiate a named scenario, optionally overriding its seed."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return builder(seed) if seed is not None else builder()
