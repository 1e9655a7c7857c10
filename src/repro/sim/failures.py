"""Crash and partition injection.

Failure schedules are data, not code: a :class:`CrashPlan` is a list of
``(time, pid, downtime)`` triples and a :class:`PartitionPlan` a list of
``(time, groups, heal_time)``; the :class:`FailureInjector` turns them into
simulator events against the process hosts.  Rate-based generation
(``CrashPlan.poisson``) produces plans from a seeded stream so experiments
remain reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.sim.env import SimEnv
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class CrashEvent:
    time: float
    pid: int
    downtime: float = 1.0

    def __post_init__(self) -> None:
        if self.time < 0 or self.downtime <= 0:
            raise ValueError(f"bad crash event {self!r}")


@dataclass
class CrashPlan:
    """A deterministic schedule of crashes."""

    events: list[CrashEvent] = field(default_factory=list)

    def crash(self, time: float, pid: int, downtime: float = 1.0) -> "CrashPlan":
        """Append a crash (builder style)."""
        self.events.append(CrashEvent(time, pid, downtime))
        return self

    def concurrent(
        self, time: float, pids: Iterable[int], downtime: float = 1.0
    ) -> "CrashPlan":
        """Crash several processes at the same instant."""
        for pid in pids:
            self.events.append(CrashEvent(time, pid, downtime))
        return self

    @staticmethod
    def poisson(
        *,
        n: int,
        horizon: float,
        rate: float,
        downtime: float = 1.0,
        streams: RandomStreams | None = None,
        max_failures_per_process: int | None = None,
    ) -> "CrashPlan":
        """Independent Poisson crash arrivals per process.

        ``rate`` is crashes per unit virtual time per process.  A crash
        that lands while the process is still down from an earlier crash
        is skipped *as a whole* when the plan executes -- neither the
        crash nor its paired restart fires -- so overlap is harmless: the
        earlier crash's downtime is never truncated.
        """
        streams = streams if streams is not None else RandomStreams(0)
        plan = CrashPlan()
        for pid in range(n):
            rng = streams.stream(f"crashes/{pid}")
            t = 0.0
            count = 0
            while True:
                t += rng.expovariate(rate)
                if t >= horizon:
                    break
                plan.crash(t, pid, downtime)
                count += 1
                if (
                    max_failures_per_process is not None
                    and count >= max_failures_per_process
                ):
                    break
        plan.events.sort(key=lambda e: (e.time, e.pid))
        return plan

    @property
    def failure_count(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class PartitionEvent:
    time: float
    groups: tuple[tuple[int, ...], ...]
    heal_time: float

    def __post_init__(self) -> None:
        if self.heal_time <= self.time:
            raise ValueError("partition must heal after it forms")


@dataclass
class PartitionPlan:
    """A deterministic schedule of partitions (non-overlapping).

    Non-overlap is enforced by :meth:`validate` (called by
    :meth:`FailureInjector.install`): the network holds a single partition
    at a time, so a second partition imposed before the first heals would
    silently overwrite it and the first heal would release everything
    early.
    """

    events: list[PartitionEvent] = field(default_factory=list)

    def partition(
        self,
        time: float,
        groups: Sequence[Iterable[int]],
        heal_time: float,
    ) -> "PartitionPlan":
        self.events.append(
            PartitionEvent(
                time, tuple(tuple(sorted(g)) for g in groups), heal_time
            )
        )
        return self

    def validate(self) -> None:
        """Raise ``ValueError`` if any two partition windows overlap."""
        ordered = sorted(self.events, key=lambda e: e.time)
        for prev, nxt in zip(ordered, ordered[1:]):
            if nxt.time < prev.heal_time:
                raise ValueError(
                    f"overlapping partitions: [{prev.time}, {prev.heal_time}) "
                    f"and [{nxt.time}, {nxt.heal_time}) -- the network holds "
                    "one partition at a time; heal the first before forming "
                    "the second"
                )


class FailureInjector:
    """Schedules a crash plan and a partition plan onto the simulation."""

    def __init__(
        self,
        sim: Simulator,
        hosts: Sequence[SimEnv],
        network: Network | None = None,
    ) -> None:
        self.sim = sim
        self.hosts = list(hosts)
        self.network = network

    def install(
        self,
        crashes: CrashPlan | None = None,
        partitions: PartitionPlan | None = None,
    ) -> None:
        if crashes is not None:
            for ev in crashes.events:
                host = self.hosts[ev.pid]
                # Crash fires at high priority so that at time t the failure
                # precedes message deliveries scheduled for the same instant.
                self.sim.schedule_at(
                    ev.time, self._crash, host, ev,
                    priority=-1,
                    label=f"crash:{ev.pid}",
                )
        if partitions is not None:
            if self.network is None:
                raise ValueError("partition plan requires a network")
            partitions.validate()
            for pev in partitions.events:
                self.sim.schedule_at(
                    pev.time, self.network.partition, pev.groups,
                    priority=-1,
                    label="partition",
                )
                # Heal fires ahead of everything else at its instant so a
                # back-to-back plan (next partition forming exactly at this
                # heal time) finds the network connected again.
                self.sim.schedule_at(
                    pev.heal_time,
                    self.network.heal,
                    priority=-2,
                    label="heal",
                )

    def _crash(self, host: SimEnv, ev: CrashEvent) -> None:
        """Crash ``host`` and schedule the paired restart -- liveness-aware.

        A crash landing while the process is already down is a no-op, and
        its restart must not fire either: scheduling both unconditionally
        would let the second crash's (earlier) restart resurrect the
        process mid-way through the first crash's downtime.
        """
        if not host.alive:
            return
        host.crash()
        self.sim.schedule(
            ev.downtime, host.restart, label=f"restart:{ev.pid}"
        )
