"""Live stress sweep: seeded fault schedules for the real TCP cluster.

The simulator sweep (:mod:`repro.stress.sweep`) grades thousands of
adversarial schedules per minute; a live cluster costs several wall
seconds per run.  This module brings the same *shape* of harness --
seeded generation, oracle grading, ddmin shrinking, JSON reproducers --
to the live runtime at a scale it can afford: a
:class:`LiveStressCase` bundles a SIGKILL schedule with a
:class:`~repro.live.faults.LiveFaultPlan` (partitions, asymmetric
drops, gray links, disk faults, corrupt frames), and every case is a
pure function of its seed, so a failing seed replays bit-identically
through ``python -m repro stress --replay``.

Generation is bounded on purpose: 3 nodes, single-digit jobs, at most
one fault of each class, and every fault window closed well before the
drain phase (partitions heal before the run ends -- an unhealed
partition makes the completeness oracle vacuous, not wrong).  The goal
is diversity per second of wall clock, not raw schedule count.

Reproducer files carry ``"live": true`` so ``--replay`` dispatches to
the live runner; the simulator reproducer format is unchanged.
"""

from __future__ import annotations

import json
import random
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.live.faults import (
    LiveCorruptFramePlan,
    LiveDiskFaultPlan,
    LiveFaultPlan,
    LiveGrayLinkPlan,
    LiveLinkDropPlan,
    LivePartitionPlan,
)
from repro.live.supervisor import (
    LiveClusterSpec,
    LiveCrashPlan,
    run_cluster,
)
from repro.live.verify import check_live_run
from repro.sim.rng import derive_seed
from repro.stress.shrink import _reduce_events

#: (at, pid, downtime) -- same tuple shape the simulator cases use.
LiveCrashTuple = tuple[float, int, float]


@dataclass(frozen=True)
class LiveStressCase:
    """One seeded live schedule; everything needed to reproduce the run."""

    seed: int
    n: int
    jobs: int
    run_seconds: float
    linger: float
    crashes: tuple[LiveCrashTuple, ...]
    faults: LiveFaultPlan

    @property
    def event_count(self) -> int:
        return len(self.crashes) + self.faults.event_count

    def describe(self) -> str:
        return (
            f"seed={self.seed} n={self.n} jobs={self.jobs} "
            f"run={self.run_seconds:.1f}s crashes={len(self.crashes)} "
            f"{self.faults.describe()}"
        )


def live_case_to_dict(case: LiveStressCase) -> dict[str, Any]:
    """JSON-ready dict for reproducer files; inverse of
    :func:`live_case_from_dict`."""
    return {
        "seed": case.seed,
        "n": case.n,
        "jobs": case.jobs,
        "run_seconds": case.run_seconds,
        "linger": case.linger,
        "crashes": [list(c) for c in case.crashes],
        "faults": case.faults.to_dict(),
    }


def live_case_from_dict(data: dict[str, Any]) -> LiveStressCase:
    """Rebuild a :class:`LiveStressCase` from its reproducer dict."""
    return LiveStressCase(
        seed=int(data["seed"]),
        n=int(data["n"]),
        jobs=int(data["jobs"]),
        run_seconds=float(data["run_seconds"]),
        linger=float(data["linger"]),
        crashes=tuple(
            (float(at), int(pid), float(down))
            for at, pid, down in data["crashes"]
        ),
        faults=LiveFaultPlan.from_dict(data["faults"]),
    )


def generate_live_case(seed: int) -> LiveStressCase:
    """Deterministically draw one bounded live schedule for ``seed``."""
    rng = random.Random(derive_seed(seed, "stress/live"))
    n = 3
    jobs = rng.randint(6, 12)
    run_seconds = round(rng.uniform(4.0, 5.5), 2)
    # Every injected window must close before the drain margin so
    # recovery and retransmission traffic can finish the pipeline.
    fault_close = run_seconds - 2.0

    crashes: tuple[LiveCrashTuple, ...] = ()
    if rng.random() < 0.4:
        crashes = (
            (
                round(rng.uniform(0.5, 1.4), 3),
                rng.randrange(n),
                round(rng.uniform(0.6, 1.0), 3),
            ),
        )

    return LiveStressCase(
        seed=seed,
        n=n,
        jobs=jobs,
        run_seconds=run_seconds,
        linger=1.2,
        crashes=crashes,
        faults=_draw_fault_plan(rng, n, fault_close, seed),
    )


def seeded_fault_plan(
    seed: int, *, n: int, run_seconds: float
) -> LiveFaultPlan:
    """A standalone seeded fault schedule for an ``n``-node cluster.

    The operator entry point (``python -m repro live --faults``) draws
    from the same vocabulary as the sweep but for whatever cluster shape
    the command line asked for.  Pure function of ``(seed, n,
    run_seconds)``.
    """
    rng = random.Random(derive_seed(seed, "live/faults"))
    return _draw_fault_plan(rng, n, max(1.0, run_seconds - 2.0), seed)


def _draw_fault_plan(
    rng: random.Random, n: int, fault_close: float, seed: int
) -> LiveFaultPlan:
    partitions: tuple[LivePartitionPlan, ...] = ()
    if rng.random() < 0.5:
        at = round(rng.uniform(0.3, 1.0), 3)
        heal = round(min(at + rng.uniform(0.6, 1.2), fault_close), 3)
        pids = list(range(n))
        rng.shuffle(pids)
        cut = rng.randint(1, n - 1)
        # A window clamped to ``fault_close`` can close as it opens
        # (``seeded_fault_plan`` at 3 s or less): it is not drawn.
        if heal > at:
            partitions = (
                LivePartitionPlan(
                    at=at,
                    groups=(
                        tuple(sorted(pids[:cut])),
                        tuple(sorted(pids[cut:])),
                    ),
                    heal_at=heal,
                ),
            )

    drops: tuple[LiveLinkDropPlan, ...] = ()
    if rng.random() < 0.35:
        src = rng.randrange(n)
        dst = rng.choice([p for p in range(n) if p != src])
        at = round(rng.uniform(0.2, 1.0), 3)
        until = round(min(at + rng.uniform(0.4, 1.0), fault_close), 3)
        if until > at:
            drops = (LiveLinkDropPlan(src, dst, at, until),)

    gray: tuple[LiveGrayLinkPlan, ...] = ()
    if rng.random() < 0.4:
        src = rng.randrange(n)
        dst = rng.choice([p for p in range(n) if p != src])
        gray = (
            LiveGrayLinkPlan(
                src, dst, 0.0, round(fault_close, 3),
                delay=round(rng.uniform(0.005, 0.04), 4),
                jitter=round(rng.uniform(0.0, 0.02), 4),
                bandwidth=(
                    float(rng.choice([100_000, 250_000, 1_000_000]))
                    if rng.random() < 0.5 else None
                ),
            ),
        )

    disk: tuple[LiveDiskFaultPlan, ...] = ()
    if rng.random() < 0.4:
        disk = (
            LiveDiskFaultPlan(
                rng.randrange(n), 0.0,
                round(rng.uniform(1.0, fault_close), 3),
                mode=rng.choice(["fail", "stall"]),
                stall=round(rng.uniform(0.05, 0.2), 3),
            ),
        )

    corrupt: tuple[LiveCorruptFramePlan, ...] = ()
    if rng.random() < 0.5:
        src = rng.randrange(n)
        dst = rng.choice([p for p in range(n) if p != src])
        corrupt = (
            LiveCorruptFramePlan(
                src, dst, 0.0, round(fault_close, 3),
                rate=round(rng.uniform(0.1, 0.4), 3),
                seed=seed,
                mode=rng.choice(["bitflip", "truncate", "mixed"]),
            ),
        )

    return LiveFaultPlan(
        partitions=partitions,
        drops=drops,
        gray_links=gray,
        disk_faults=disk,
        corrupt_frames=corrupt,
    )


def build_live_spec(case: LiveStressCase) -> LiveClusterSpec:
    return LiveClusterSpec(
        n=case.n,
        jobs=case.jobs,
        run_seconds=case.run_seconds,
        linger=case.linger,
        crashes=[
            LiveCrashPlan(pid=pid, at=at, downtime=down)
            for at, pid, down in case.crashes
        ],
        faults=case.faults,
    )


@dataclass(frozen=True)
class LiveCaseResult:
    """One graded live run."""

    case: LiveStressCase
    violations: tuple[str, ...] = ()
    error: str | None = None
    shrunk: LiveStressCase | None = None

    @property
    def failed(self) -> bool:
        return bool(self.violations) or self.error is not None

    def headline(self) -> str:
        if self.error is not None:
            lines = [
                line for line in self.error.strip().splitlines()
                if line.strip()
            ]
            return f"exception: {lines[-1].strip() if lines else 'unknown'}"
        return self.violations[0] if self.violations else "ok"


def run_live_case(
    case: LiveStressCase, *, workdir: str | None = None
) -> LiveCaseResult:
    """Run one live schedule and grade it; exceptions become failures."""
    try:
        if workdir is None:
            with tempfile.TemporaryDirectory(
                prefix=f"live-stress-{case.seed}-"
            ) as tmp:
                return _graded(case, tmp)
        return _graded(case, workdir)
    except Exception:
        return LiveCaseResult(
            case=case, error=traceback.format_exc(limit=12)
        )


def _graded(case: LiveStressCase, workdir: str) -> LiveCaseResult:
    result = run_cluster(build_live_spec(case), workdir)
    violations: list[str] = []
    verdict = check_live_run(result.trace, n=case.n, jobs=case.jobs)
    violations.extend(verdict.failures)
    bad_exits = {
        pid: code for pid, code in result.exit_codes.items() if code != 0
    }
    if bad_exits:
        violations.append(f"non-zero exit codes: {bad_exits}")
    missing = [
        pid for pid in range(case.n) if pid not in result.done
    ]
    if missing:
        violations.append(f"missing done reports: {missing}")
    return LiveCaseResult(case=case, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Shrinking: ddmin over the fault/crash event lists
# ---------------------------------------------------------------------------
def shrink_live_case(
    case: LiveStressCase,
    fails: Callable[[LiveStressCase], bool],
    *,
    max_attempts: int = 24,
) -> LiveStressCase:
    """Minimise a failing live schedule under a tight predicate budget.

    Each predicate call runs a real cluster (seconds of wall clock), so
    the default budget is a fraction of the simulator's.  The reduction
    itself is the same ddmin pass the simulator shrinker uses
    (:func:`repro.stress.shrink._reduce_events` is schedule-agnostic);
    the result is always a *verified-failing* case.
    """
    budget = max_attempts

    def check(candidate: LiveStressCase) -> bool:
        nonlocal budget
        if budget <= 0:
            return False
        budget -= 1
        return fails(candidate)

    while budget > 0:
        before = case
        if case.crashes:
            kept = _reduce_events(
                case.crashes,
                lambda ev: replace(case, crashes=ev),
                check,
            )
            case = replace(case, crashes=kept)
        for attr in (
            "partitions", "drops", "gray_links",
            "disk_faults", "corrupt_frames",
        ):
            events = getattr(case.faults, attr)
            if not events:
                continue
            kept = _reduce_events(
                events,
                lambda ev, attr=attr: replace(
                    case, faults=replace(case.faults, **{attr: ev})
                ),
                check,
            )
            case = replace(case, faults=replace(case.faults, **{attr: kept}))
        if case == before:
            break
    return case


# ---------------------------------------------------------------------------
# Sweep driver and reproducer files
# ---------------------------------------------------------------------------
@dataclass
class LiveSweepReport:
    """Aggregate outcome of one live seed block."""

    base_seed: int
    schedules: int
    cases_run: int = 0
    fault_events: int = 0
    crash_events: int = 0
    failures: list[LiveCaseResult] = field(default_factory=list)
    reproducers: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"live stress sweep: {self.cases_run}/{self.schedules} "
            f"schedules (seeds {self.base_seed}.."
            f"{self.base_seed + self.schedules - 1})",
            f"  injected: {self.crash_events} crashes, "
            f"{self.fault_events} fault windows",
        ]
        if self.ok:
            lines.append("  all invariants held")
        else:
            lines.append(f"  FAILURES: {len(self.failures)}")
            for fr in self.failures:
                repro = fr.shrunk if fr.shrunk is not None else fr.case
                lines.append(f"    seed {fr.case.seed}: {fr.headline()}")
                lines.append(f"      reproducer: {repro.describe()}")
        return "\n".join(lines)


def live_sweep(
    schedules: int,
    *,
    base_seed: int = 0,
    shrink: bool = True,
    max_shrink_attempts: int = 24,
    fail_fast: bool = False,
    out_dir: Path | None = None,
    run: Callable[..., LiveCaseResult] = run_live_case,
    progress: Callable[[int, LiveCaseResult], None] | None = None,
) -> LiveSweepReport:
    """Run ``schedules`` generated live cases, serially.

    Live runs own the machine (one OS process per node); running them
    concurrently would turn scheduling jitter into spurious timing
    failures, so there is no ``jobs`` knob here.  ``run`` is injectable
    for the same reason as the simulator sweep's: plumbing tests.
    """
    report = LiveSweepReport(base_seed=base_seed, schedules=schedules)
    for index in range(schedules):
        seed = base_seed + index
        case = generate_live_case(seed)
        result = run(case)
        report.cases_run += 1
        report.crash_events += len(case.crashes)
        report.fault_events += case.faults.event_count
        if result.failed:
            if shrink:
                shrunk = shrink_live_case(
                    case,
                    lambda candidate: run(candidate).failed,
                    max_attempts=max_shrink_attempts,
                )
                if shrunk != case:
                    result = replace(result, shrunk=shrunk)
            report.failures.append(result)
            if out_dir is not None:
                report.reproducers.append(
                    dump_live_reproducer(result, out_dir)
                )
            if fail_fast:
                if progress is not None:
                    progress(index, result)
                break
        if progress is not None:
            progress(index, result)
    return report


def dump_live_reproducer(result: LiveCaseResult, out_dir: Path) -> Path:
    """Write a failing live case as replayable JSON (``"live": true``)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "live": True,
        "case": live_case_to_dict(result.case),
        "shrunk": (
            live_case_to_dict(result.shrunk)
            if result.shrunk is not None else None
        ),
        "violations": list(result.violations),
        "error": result.error,
    }
    path = out_dir / f"stress-live-repro-seed{result.case.seed}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_live_reproducer(path: Path) -> tuple[LiveStressCase, dict]:
    """Load a live reproducer; replays the shrunk case when present."""
    data = json.loads(Path(path).read_text())
    chosen = data.get("shrunk") or data["case"]
    return live_case_from_dict(chosen), data
