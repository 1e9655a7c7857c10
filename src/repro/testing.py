"""Public testing utilities for building deterministic scenarios.

Downstream users writing their own applications or protocol variants need
the same tools this repository's test-suite uses: a way to stand up the
full stack with scripted messages and exact timings, run it to quiescence,
and assert recovery correctness.  This module packages them.

Example -- force a specific interleaving and check the protocol's
reaction::

    from repro.testing import ScenarioBuilder
    from repro.harness.scenarios import ScriptedApp

    result = (
        ScenarioBuilder(n=2)
        .app(ScriptedApp(bootstrap_sends={0: [(1, "m")]}))
        .latency(0, 1, 1.0)              # m arrives at t=1
        .crash(at=5.0, pid=1, downtime=1.0)
        .flush(pid=1, at=2.0)            # m survives the crash
        .run()
    )
    result.assert_recovered()
    assert result.protocols[1].executor.state == ("m",)
"""

from __future__ import annotations

from typing import Any

from repro.analysis.consistency import RecoveryVerdict, check_recovery
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentResult, ExperimentSpec
from repro.protocols.base import BaseRecoveryProcess, ProtocolConfig
from repro.runtime.app import Application
from repro.sim.failures import CrashPlan
from repro.sim.network import ScriptedLatency


class ScenarioRun(ExperimentResult):
    """A finished scripted run with assertion helpers."""

    def verdict(self, **kwargs: Any) -> RecoveryVerdict:
        return check_recovery(self, **kwargs)

    def assert_recovered(self, **kwargs: Any) -> RecoveryVerdict:
        """Raise AssertionError with the violations if the oracle fails."""
        verdict = self.verdict(**kwargs)
        assert verdict.ok, verdict.violations
        return verdict

    def protocol(self, pid: int) -> BaseRecoveryProcess:
        return self.protocols[pid]


class ScenarioBuilder:
    """Fluent construction of a deterministic scripted experiment."""

    def __init__(self, n: int, *, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("need at least one process")
        self.n = n
        self.seed = seed
        self._app: Application | None = None
        self._protocol_cls: type[BaseRecoveryProcess] = DamaniGargProcess
        self._latency = ScriptedLatency(default=2.0)
        self._crashes = CrashPlan()
        self._flushes: list[tuple[int, float]] = []
        self._checkpoints: list[tuple[int, float]] = []
        self._config = ProtocolConfig(
            checkpoint_interval=1e9, flush_interval=1e9
        )
        self._horizon = 200.0

    # ------------------------------------------------------------------
    # Configuration (all fluent)
    # ------------------------------------------------------------------
    def app(self, application: Application) -> "ScenarioBuilder":
        self._app = application
        return self

    def protocol(
        self, protocol_cls: type[BaseRecoveryProcess]
    ) -> "ScenarioBuilder":
        self._protocol_cls = protocol_cls
        return self

    def config(self, config: ProtocolConfig) -> "ScenarioBuilder":
        self._config = config
        return self

    def latency(
        self, src: int, dst: int, *delays: float, kind: str = "app"
    ) -> "ScenarioBuilder":
        """Plan exact delays for the next sends on channel (src, dst)."""
        self._latency.plan(src, dst, *delays, kind=kind)
        return self

    def default_latency(self, delay: float) -> "ScenarioBuilder":
        self._latency.default = delay
        return self

    def crash(
        self, *, at: float, pid: int, downtime: float = 1.0
    ) -> "ScenarioBuilder":
        self._crashes.crash(at, pid, downtime)
        return self

    def flush(self, *, pid: int, at: float) -> "ScenarioBuilder":
        """Force pid's volatile log to stable storage at a chosen time."""
        self._flushes.append((pid, at))
        return self

    def checkpoint(self, *, pid: int, at: float) -> "ScenarioBuilder":
        """Force pid to take a checkpoint at a chosen time."""
        self._checkpoints.append((pid, at))
        return self

    def horizon(self, time: float) -> "ScenarioBuilder":
        self._horizon = time
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> ScenarioRun:
        if self._app is None:
            raise ValueError("ScenarioBuilder needs .app(...)")
        result = ScenarioRun.build(
            ExperimentSpec(
                n=self.n,
                app=self._app,
                protocol=self._protocol_cls,
                seed=self.seed,
                horizon=self._horizon,
                latency=self._latency,
                config=self._config,
                crashes=self._crashes,
            )
        )
        for pid, time in self._flushes:
            result.sim.schedule_at(time, result.protocols[pid].flush_log)
        for pid, time in self._checkpoints:
            result.sim.schedule_at(time, result.protocols[pid].take_checkpoint)
        result.run()
        return result
