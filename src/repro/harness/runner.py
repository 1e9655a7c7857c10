"""The experiment runner: protocol x workload x failure schedule -> result.

A single entry point, :func:`run_experiment`, assembles the full stack
(simulator, network, simulated processes, protocols, failure injector),
runs it, and returns an :class:`ExperimentResult` bundling the ground-truth
trace, per-process protocol stats and the live protocol objects for
inspection.  Everything is driven by an :class:`ExperimentSpec`, which is
plain data so sweeps are trivial to express.

This module is the only place a simulated run is assembled.  A scripted
run splits :func:`run_experiment` in two: :meth:`ExperimentResult.build`
assembles the stack and installs the failure plans, the script schedules
its own calls on ``result.sim``, and :meth:`ExperimentResult.run` starts,
runs, halts and drains it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.tracer import NULL_TRACER
from repro.protocols.base import (
    BaseRecoveryProcess,
    ProtocolConfig,
    ProtocolStats,
)
from repro.sim.failures import CrashPlan, FailureInjector, PartitionPlan
from repro.sim.kernel import Simulator
from repro.sim.network import (
    DeliveryOrder,
    LatencyModel,
    Network,
    UniformLatency,
)
from repro.runtime.app import Application
from repro.runtime.collector import collector_paused
from repro.runtime.env import RuntimeEnv
from repro.runtime.trace import SimTrace
from repro.sim.env import SimEnv
from repro.sim.rng import RandomStreams

ProtocolFactory = Callable[
    [RuntimeEnv, Application, ProtocolConfig], BaseRecoveryProcess
]


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one run."""

    n: int
    app: Application
    protocol: ProtocolFactory
    seed: int = 0
    horizon: float = 100.0
    drain: bool = True               # run recovery traffic to quiescence
    drain_limit: int = 2_000_000
    order: DeliveryOrder = DeliveryOrder.RANDOM
    latency: LatencyModel = field(default_factory=UniformLatency)
    # At-least-once transport: probability each app message is delivered
    # twice.  Use only with protocols that suppress duplicates.
    duplicate_rate: float = 0.0
    config: ProtocolConfig = field(default_factory=ProtocolConfig)
    crashes: CrashPlan | None = None
    partitions: PartitionPlan | None = None
    # Record application states per state uid (needed by the predicate
    # detection utilities).
    record_states: bool = False
    # Observability: a repro.obs.Tracer to wire through the whole stack
    # (kernel, network, hosts, protocols).  None = zero-instrumentation.
    # Attaching one must not change the run (determinism test pins this).
    tracer: Any | None = None


@dataclass
class ExperimentResult:
    """What a run produced, for oracles and metrics."""

    spec: ExperimentSpec
    sim: Simulator
    network: Network
    trace: SimTrace
    hosts: list[SimEnv]
    protocols: list[BaseRecoveryProcess]

    @property
    def stats(self) -> list[ProtocolStats]:
        return [p.stats for p in self.protocols]

    def total(self, attr: str) -> Any:
        """Sum a ProtocolStats counter across processes."""
        return sum(getattr(s, attr) for s in self.stats)

    @property
    def total_rollbacks(self) -> int:
        return self.total("rollbacks")

    @property
    def total_restarts(self) -> int:
        return self.total("restarts")

    @property
    def total_delivered(self) -> int:
        return self.total("app_delivered")

    def release(self) -> None:
        """Give a graded run back to the reference count: network, hosts,
        environments and protocols form one cycle of ~2k objects that only
        the collector's older generations would free (a tenth of a stress
        sweep).  Trace, stats and storage still read afterwards; the
        simulation cannot run again."""
        for host in self.hosts:
            host.dismantle()

    def max_rollbacks_for_single_failure(self) -> int:
        """Across all processes: the most times any one process rolled back
        in response to one failure -- Table 1's "rollbacks per failure"."""
        return max(
            (s.max_rollbacks_for_single_failure for s in self.stats),
            default=0,
        )

    @classmethod
    def build(cls, spec: ExperimentSpec) -> "ExperimentResult":
        """Assemble the stack ``spec`` describes and install its failure
        plans, without starting it.  Calls scheduled on ``result.sim``
        before :meth:`run` fire at their virtual times."""
        sim = Simulator(tracer=spec.tracer)
        if spec.tracer is not None:
            # Gauge samples and obs events carry virtual timestamps.
            spec.tracer.bind_clock(lambda: sim.now)
        trace = SimTrace()
        network = Network(
            sim,
            spec.n,
            streams=RandomStreams(spec.seed),
            latency=spec.latency,
            order=spec.order,
            trace=trace,
            duplicate_rate=spec.duplicate_rate,
        )
        hosts = [SimEnv(pid, sim, network, trace) for pid in range(spec.n)]
        protocols = [
            spec.protocol(host, spec.app, spec.config) for host in hosts
        ]
        if spec.record_states:
            for protocol in protocols:
                protocol.executor.record_states = True
        FailureInjector(sim, hosts, network).install(
            spec.crashes, spec.partitions
        )
        return cls(
            spec=spec,
            sim=sim,
            network=network,
            trace=trace,
            hosts=hosts,
            protocols=protocols,
        )

    def run(self) -> "ExperimentResult":
        """Start every process, run to the horizon, then (``spec.drain``)
        halt the periodic tasks and run to quiescence; returns ``self``.

        With stability gossip on, the drain ends with one more gossip round
        from every live process and a drain of its reports, so outputs
        stranded by the cutoff still commit."""
        spec = self.spec
        # A run only adds to what it holds (repro.runtime.collector): the
        # automatic collector stays off, and one young collection at the
        # end traverses what the run made, once.
        with collector_paused(spec.tracer):
            for host in self.hosts:
                host.start()
            obs = spec.tracer if spec.tracer is not None else NULL_TRACER
            with obs.span("run.horizon_wall_s"):
                self.sim.run(until=spec.horizon)
            if spec.drain:
                # Stop checkpoint/flush heartbeats so the run can quiesce,
                # then let in-flight application and recovery traffic
                # finish.
                for protocol in self.protocols:
                    protocol.halt_periodic_tasks()
                with obs.span("run.drain_wall_s"):
                    self.sim.drain(limit=spec.drain_limit)
                    if spec.config.gossip_interval is not None:
                        # One more round from every live process, each as
                        # a 0-delay timer: the event order the stress
                        # digest pins.
                        for host in self.hosts:
                            if host.alive:
                                host.schedule_after(
                                    0.0, host.protocol.gossip_tick,
                                    label=f"gossip:{host.pid}",
                                )
                        self.sim.drain(limit=spec.drain_limit)
        return self


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Build the stack described by ``spec``, run it, return the result."""
    return ExperimentResult.build(spec).run()
