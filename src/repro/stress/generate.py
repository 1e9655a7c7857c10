"""Randomized fault-schedule generation.

A :class:`StressCase` is the *complete*, plain-data description of one
adversarial run: system size, workload, delivery order, duplication rate,
protocol extension flags, and the full crash and partition schedules.  It
is a pure function of ``(profile, seed)`` -- :func:`generate_case` draws
everything from a stream derived with the same stable hash the simulator
uses -- and it round-trips through JSON, which is what makes failing
seeds replayable and shrinkable.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan, PartitionPlan
from repro.sim.network import DeliveryOrder
from repro.sim.rng import derive_seed
from repro.stress.profiles import DEFAULT_PROFILE, WORKLOADS, StressProfile

#: (time, pid, downtime)
CrashTuple = tuple[float, int, float]
#: (time, groups, heal_time) with groups a tuple of pid tuples
PartitionTuple = tuple[float, tuple[tuple[int, ...], ...], float]


@dataclass(frozen=True)
class StressCase:
    """One generated schedule; everything needed to reproduce the run."""

    seed: int
    n: int
    workload: str
    horizon: float
    order: str                       # "fifo" | "random"
    duplicate_rate: float
    checkpoint_interval: float
    flush_interval: float
    retransmit_on_token: bool
    commit_outputs: bool
    enable_gc: bool
    # The stability gossip interval (ProtocolConfig.gossip_interval).
    stability_interval: float | None
    crashes: tuple[CrashTuple, ...]
    partitions: tuple[PartitionTuple, ...]

    @property
    def crash_count(self) -> int:
        return len(self.crashes)

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    def describe(self) -> str:
        flags = []
        if self.duplicate_rate:
            flags.append(f"dup={self.duplicate_rate:.2f}")
        if self.retransmit_on_token:
            flags.append("retransmit")
        if self.commit_outputs:
            flags.append("commit")
        if self.enable_gc:
            flags.append("gc")
        return (
            f"seed={self.seed} n={self.n} {self.workload} "
            f"h={self.horizon:.0f} {self.order} "
            f"crashes={self.crash_count} partitions={self.partition_count}"
            + (" " + " ".join(flags) if flags else "")
        )


def generate_case(
    seed: int, profile: StressProfile = DEFAULT_PROFILE
) -> StressCase:
    """Deterministically draw one schedule for ``seed`` under ``profile``."""
    rng = random.Random(derive_seed(seed, f"stress/{profile.name}"))
    n = rng.randint(profile.min_n, profile.max_n)
    horizon = rng.uniform(profile.min_horizon, profile.max_horizon)
    workload = rng.choice(list(profile.workloads))
    order = "fifo" if rng.random() < profile.fifo_prob else "random"
    duplicate_rate = (
        rng.uniform(*profile.duplicate_rate)
        if rng.random() < profile.duplicate_prob
        else 0.0
    )
    retransmit = rng.random() < profile.retransmit_prob
    commit = rng.random() < profile.extensions_prob
    checkpoint_interval = round(rng.uniform(*profile.checkpoint_interval), 3)
    flush_interval = round(rng.uniform(*profile.flush_interval), 3)
    stability_interval = round(rng.uniform(3.0, 6.0), 3) if commit else None
    # GC draws from a stream of its own: the main stream, and so the
    # crash and partition schedules, do not depend on it.
    gc_rng = random.Random(derive_seed(seed, f"stress/{profile.name}/gc"))
    enable_gc = gc_rng.random() < profile.extensions_prob
    if enable_gc and stability_interval is None:
        stability_interval = round(gc_rng.uniform(3.0, 6.0), 3)
    return StressCase(
        seed=seed,
        n=n,
        workload=workload,
        horizon=round(horizon, 3),
        order=order,
        duplicate_rate=round(duplicate_rate, 3),
        checkpoint_interval=checkpoint_interval,
        flush_interval=flush_interval,
        retransmit_on_token=retransmit,
        commit_outputs=commit,
        enable_gc=enable_gc,
        stability_interval=stability_interval,
        crashes=_generate_crashes(rng, n, horizon, profile),
        partitions=_generate_partitions(rng, n, horizon, profile),
    )


def _generate_crashes(
    rng: random.Random, n: int, horizon: float, profile: StressProfile
) -> tuple[CrashTuple, ...]:
    """Poisson arrivals per process, downtimes long enough to overlap,
    plus an optional same-instant concurrent burst."""
    rate = rng.uniform(*profile.crash_rate)
    events: list[CrashTuple] = []
    for pid in range(n):
        t, count = 0.0, 0
        while count < profile.max_failures_per_process:
            t += rng.expovariate(rate)
            if t >= horizon * 0.85:
                break
            events.append(
                (round(t, 3), pid, round(rng.uniform(*profile.downtime), 3))
            )
            count += 1
    if n >= 2 and rng.random() < profile.concurrent_burst_prob:
        burst_at = round(rng.uniform(horizon * 0.2, horizon * 0.7), 3)
        size = rng.randint(2, min(profile.max_burst_size, n))
        for pid in rng.sample(range(n), size):
            events.append(
                (burst_at, pid, round(rng.uniform(*profile.downtime), 3))
            )
    events.sort(key=lambda e: (e[0], e[1]))
    return tuple(events)


def _generate_partitions(
    rng: random.Random, n: int, horizon: float, profile: StressProfile
) -> tuple[PartitionTuple, ...]:
    """Sequential, non-overlapping partition windows with random 2-way
    splits (``PartitionPlan.validate`` enforces the non-overlap)."""
    if n < 2 or profile.max_partitions == 0:
        return ()
    count = rng.randint(0, profile.max_partitions)
    events: list[PartitionTuple] = []
    t = rng.uniform(0.0, horizon * 0.3)
    for _ in range(count):
        start = t + rng.uniform(0.5, horizon * 0.2)
        duration = rng.uniform(*profile.partition_duration)
        heal = start + duration
        if heal >= horizon * 0.95:
            break
        pids = list(range(n))
        rng.shuffle(pids)
        cut = rng.randint(1, n - 1)
        groups = (tuple(sorted(pids[:cut])), tuple(sorted(pids[cut:])))
        events.append((round(start, 3), groups, round(heal, 3)))
        t = heal
    return tuple(events)


# ---------------------------------------------------------------------------
# Case -> runnable spec
# ---------------------------------------------------------------------------
def build_spec(case: StressCase) -> ExperimentSpec:
    """Assemble the :class:`ExperimentSpec` a case describes."""
    crashes = CrashPlan()
    for time, pid, downtime in case.crashes:
        crashes.crash(time, pid, downtime)
    partitions = PartitionPlan()
    for time, groups, heal_time in case.partitions:
        partitions.partition(time, groups, heal_time)
    return ExperimentSpec(
        n=case.n,
        app=WORKLOADS[case.workload](case.n),
        protocol=DamaniGargProcess,
        seed=case.seed,
        horizon=case.horizon,
        order=(
            DeliveryOrder.FIFO if case.order == "fifo"
            else DeliveryOrder.RANDOM
        ),
        duplicate_rate=case.duplicate_rate,
        config=ProtocolConfig(
            checkpoint_interval=case.checkpoint_interval,
            flush_interval=case.flush_interval,
            retransmit_on_token=case.retransmit_on_token,
            commit_outputs=case.commit_outputs,
            enable_gc=case.enable_gc,
            gossip_interval=case.stability_interval,
        ),
        crashes=crashes if case.crashes else None,
        partitions=partitions if case.partitions else None,
    )


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------
def case_to_dict(case: StressCase) -> dict[str, Any]:
    """Flatten a case to JSON-serialisable plain data."""
    return asdict(case)


def case_from_dict(data: dict[str, Any]) -> StressCase:
    """Rebuild a case from :func:`case_to_dict` output (JSON-safe types).

    Reproducers recorded while stable-storage crash points existed carry
    a ``crash_points`` list; an empty one loads, a non-empty one names
    windows that no longer exist and is refused."""
    if data.get("crash_points"):
        raise ValueError(
            f"seed {data.get('seed')}: the case arms crash points "
            f"{data['crash_points']!r}; a protocol transition is one "
            "record, so there is no window inside one to arm"
        )
    return StressCase(
        seed=int(data["seed"]),
        n=int(data["n"]),
        workload=str(data["workload"]),
        horizon=float(data["horizon"]),
        order=str(data["order"]),
        duplicate_rate=float(data["duplicate_rate"]),
        checkpoint_interval=float(data["checkpoint_interval"]),
        flush_interval=float(data["flush_interval"]),
        retransmit_on_token=bool(data["retransmit_on_token"]),
        commit_outputs=bool(data["commit_outputs"]),
        enable_gc=bool(data["enable_gc"]),
        stability_interval=(
            None if data["stability_interval"] is None
            else float(data["stability_interval"])
        ),
        crashes=tuple(
            (float(t), int(pid), float(down))
            for t, pid, down in data["crashes"]
        ),
        partitions=tuple(
            (
                float(t),
                tuple(tuple(int(p) for p in group) for group in groups),
                float(heal),
            )
            for t, groups, heal in data["partitions"]
        ),
    )


def with_events(
    case: StressCase,
    *,
    crashes: tuple[CrashTuple, ...] | None = None,
    partitions: tuple[PartitionTuple, ...] | None = None,
) -> StressCase:
    """Copy ``case`` with a different failure schedule (shrinker helper)."""
    kwargs: dict[str, Any] = {}
    if crashes is not None:
        kwargs["crashes"] = crashes
    if partitions is not None:
        kwargs["partitions"] = partitions
    return replace(case, **kwargs)
