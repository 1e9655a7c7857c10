"""Open-loop load generation for the live cluster.

The classic pipeline workload is *closed-loop*: stage 0 bootstraps all
jobs in one burst, so its "throughput" is the workload's send cadence,
not a system limit, and its latency distribution is one burst's drain
time.  This module replaces the burst with an **open-loop source**: job
``j`` has a deterministic intended injection time ``start_at + j/rate``,
and the source injects every job whose intended time has passed whenever
it runs.  Falling behind does not slow the schedule down -- the next tick
injects the backlog -- so measured latency includes queueing delay the
way a real client would see it (no coordinated omission).

Latency is graded from the merged trace alone: job ``j`` completes at its
OUTPUT event's timestamp, and its latency is that timestamp minus the
*intended* injection time -- which a grader recomputes from ``(rate,
start_at)``, so the measurement cannot be gamed by a late injector.  The
injected payloads are byte-identical to bootstrap's, so a load run is
graded by the same closed-form oracle as the classic workload
(:func:`~repro.live.verify.check_live_run`).  The ``live_saturated``
workload of ``benchmarks/perf`` is the measurement built on this.
"""

from __future__ import annotations

from typing import Any

from repro.apps.applications import Job, PipelineApp, mix64
from repro.live.supervisor import LiveClusterSpec


class LoadPipelineApp(PipelineApp):
    """The pipeline stages without the bootstrap burst.

    Stage behaviour (and therefore the closed-form reference values) is
    identical to :class:`PipelineApp`; jobs arrive from an
    :class:`OpenLoopSource` instead of one bootstrap-time burst.
    """

    def bootstrap(self, pid: int, n: int, ctx: Any) -> None:
        return


class OpenLoopSource:
    """Inject pipeline jobs at a fixed offered rate, open-loop.

    Engine-agnostic: drives any protocol through its ``env`` timer API
    (:meth:`~repro.runtime.env.RuntimeEnv.schedule_after`), so the same
    source runs on the deterministic simulator and on a live node.  Only
    the process that never receives app messages (stage 0) may host the
    source -- see :meth:`DamaniGargProcess.inject_app_send`.
    """

    def __init__(
        self,
        protocol: Any,
        *,
        rate: float,
        jobs: int,
        start_at: float = 0.25,
        dst: int = 1,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"offered rate must be positive, got {rate}")
        if jobs < 0:
            raise ValueError(f"job count must be >= 0, got {jobs}")
        self.protocol = protocol
        self.rate = float(rate)
        self.jobs = int(jobs)
        self.start_at = float(start_at)
        self.dst = dst
        self.injected = 0
        self._handle: Any | None = None
        self._stopped = False

    def intended_time(self, job: int) -> float:
        """The deterministic open-loop schedule: when job ``job`` is
        *supposed* to enter the system, in env-time seconds."""
        return self.start_at + job / self.rate

    def start(self) -> None:
        env = self.protocol.env
        self._schedule(max(0.0, self.start_at - env.now))

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def done(self) -> bool:
        return self.injected >= self.jobs

    def _schedule(self, delay: float) -> None:
        self._handle = self.protocol.env.schedule_after(
            delay, self._tick, label="load-source"
        )

    def _tick(self) -> None:
        if self._stopped:
            return
        env = self.protocol.env
        # Inject the whole backlog: every job whose intended time has
        # passed.  A tick that fires late (busy event loop) catches up in
        # a burst instead of stretching the schedule -- that is what
        # makes the load open-loop.
        now = env.now
        while self.injected < self.jobs and self.intended_time(
            self.injected
        ) <= now:
            job = self.injected
            self.injected += 1
            self.protocol.inject_app_send(
                self.dst, Job(job_id=job, stage=1, value=mix64(job, 0))
            )
        if self.injected < self.jobs and not self._stopped:
            self._schedule(
                max(0.0, self.intended_time(self.injected) - env.now)
            )

    def report(self) -> dict[str, Any]:
        return {
            "offered_rate": self.rate,
            "jobs": self.jobs,
            "start_at": self.start_at,
            "injected": self.injected,
        }


def load_spec(
    *,
    n: int,
    rate: float,
    duration: float,
    start_at: float = 0.25,
    drain: float = 1.0,
    drain_rate: float = 250.0,
    linger: float = 1.5,
) -> LiveClusterSpec:
    """Cluster spec for one offered-rate scenario.

    The run deadline budgets ``drain + jobs / drain_rate`` beyond the
    offered-load window: past saturation an open-loop source builds a
    backlog, and the scenario must keep running until the system has
    worked it off or the completeness oracle cannot be graded.  The
    budget changes only *when the run stops*, never the injection
    schedule or the latency accounting -- queueing delay still lands on
    every backlogged job, which is what makes the over-saturated points
    of the latency curve honest instead of truncated.  ``drain_rate`` is
    a worst-case floor on sustained job completion, deliberately far
    below observed capacity.

    Stability gossip + GC are on: an open-loop run delivers orders of
    magnitude more messages than the classic burst, and without GC of
    checkpoints and log prefixes, the stable log makes every
    group-commit rewrite of the storage image O(total messages).
    """
    jobs = int(rate * duration)
    return LiveClusterSpec(
        n=n,
        jobs=jobs,
        run_seconds=start_at + duration + drain + jobs / drain_rate,
        linger=linger,
        gossip_interval=0.5,
        enable_gc=True,
        app={
            "kind": "load",
            "jobs": jobs,
            "rate": rate,
            "start_at": start_at,
        },
    )
