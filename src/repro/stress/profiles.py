"""Stress-sweep tuning profiles and the workload registry.

A :class:`StressProfile` bounds the random schedule generator: system
sizes, horizons, crash rates, downtime ranges (long enough to overlap),
partition windows, duplication rates, ordering disciplines, and which
Section 6.5 extensions may be switched on.  Profiles are data so CI can
run a cheap sweep (``quick``) while local soaking uses ``heavy``.

Workload factories are deliberately smaller than the ones behind
``python -m repro run``: a stress sweep runs hundreds of schedules, so
each case must finish in tens of milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.theorem import MAX_STATES
from repro.apps import BankApp, PingPongApp, PipelineApp, RandomRoutingApp
from repro.runtime.app import Application

#: Workload name -> factory(n).  Every app here is piecewise-deterministic
#: and safe under any of the generated failure schedules.
WORKLOADS: dict[str, Callable[[int], Application]] = {
    "routing": lambda n: RandomRoutingApp(
        hops=40, seeds=tuple(range(min(2, n))), initial_items=2
    ),
    "routing-fanout": lambda n: RandomRoutingApp(
        hops=30, seeds=(0,), initial_items=2, fanout=2
    ),
    "pingpong": lambda n: PingPongApp(rounds=40),
    "pipeline": lambda n: PipelineApp(jobs=6),
    "bank": lambda n: BankApp(
        seeds=(0,) if n < 3 else (0, 2), max_chain=120
    ),
}


@dataclass(frozen=True)
class StressProfile:
    """Bounds for the randomized schedule generator (all seeded draws)."""

    name: str
    min_n: int = 3
    max_n: int = 6
    min_horizon: float = 30.0
    max_horizon: float = 70.0
    #: crashes per process per unit virtual time, drawn once per case
    crash_rate: tuple[float, float] = (0.005, 0.04)
    #: per-crash downtime range; the top end exceeds typical inter-arrival
    #: gaps so overlapping crash/restart pairs genuinely occur
    downtime: tuple[float, float] = (0.5, 8.0)
    max_failures_per_process: int = 4
    #: probability of adding one same-instant multi-process crash burst
    concurrent_burst_prob: float = 0.35
    max_burst_size: int = 3
    max_partitions: int = 2
    partition_duration: tuple[float, float] = (3.0, 12.0)
    #: probability the transport is at-least-once, and the rate if so
    duplicate_prob: float = 0.4
    duplicate_rate: tuple[float, float] = (0.05, 0.3)
    fifo_prob: float = 0.5
    retransmit_prob: float = 0.5
    #: probability of enabling output commit, and, drawn independently,
    #: of enabling GC (either one turns on the stability gossip)
    extensions_prob: float = 0.3
    checkpoint_interval: tuple[float, float] = (5.0, 12.0)
    flush_interval: tuple[float, float] = (1.5, 4.0)
    workloads: tuple[str, ...] = (
        "routing", "routing-fanout", "pingpong", "pipeline", "bank"
    )
    #: most useful states the Theorem-1 oracle compares per case; no
    #: profile sets it, so every useful state of every schedule is compared
    theorem_max_states: int = MAX_STATES


PROFILES: dict[str, StressProfile] = {
    "quick": StressProfile(
        name="quick",
        max_n=5,
        min_horizon=20.0,
        max_horizon=40.0,
        max_partitions=1,
    ),
    "default": StressProfile(name="default"),
    "heavy": StressProfile(
        name="heavy",
        max_n=10,
        min_horizon=60.0,
        max_horizon=120.0,
        crash_rate=(0.01, 0.06),
        max_failures_per_process=6,
        max_partitions=4,
    ),
}

DEFAULT_PROFILE = PROFILES["default"]
