"""The stress sweep: generate, run, grade, shrink, report.

:func:`sweep` drives the whole tentpole loop: for each seed in the
block, :func:`~repro.stress.generate.generate_case` draws a schedule,
:func:`run_case` executes it under the Damani-Garg protocol and grades
it with every oracle in :mod:`repro.stress.oracles`, and any failure is
handed to :func:`~repro.stress.shrink.shrink_case` and dumped as a
replayable JSON reproducer.

A simulator bug that *raises* (rather than merely violating an
invariant) is treated exactly like an oracle violation -- caught,
reported, shrunk -- so the sweep keeps going and one bad schedule never
hides the rest of the block.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.exec.cache import ResultCache

from repro.analysis.theorem import MAX_STATES
from repro.harness.runner import run_experiment
from repro.stress.generate import (
    StressCase,
    build_spec,
    case_from_dict,
    case_to_dict,
    generate_case,
)
from repro.stress.oracles import check_case
from repro.stress.profiles import DEFAULT_PROFILE, StressProfile
from repro.stress.shrink import shrink_case


@dataclass(frozen=True)
class CaseResult:
    """One graded run.

    ``trace_signature`` is the deterministic digest of the run's ground
    truth trace (see :meth:`repro.runtime.trace.SimTrace.signature`); the
    parallel-vs-serial equivalence oracle compares it to prove that
    ``jobs=N`` executed bit-identical simulations.
    """

    case: StressCase
    violations: tuple[str, ...] = ()
    error: str | None = None
    shrunk: StressCase | None = None
    trace_signature: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.violations) or self.error is not None

    def headline(self) -> str:
        if self.error is not None:
            return f"exception: {exception_line(self.error)}"
        if self.violations:
            return self.violations[0]
        return "ok"


def exception_line(error: str) -> str:
    """The exception line of a formatted traceback (its last non-blank
    line, e.g. ``"ValueError: boom"``) -- what a failure headline shows."""
    lines = [line for line in error.strip().splitlines() if line.strip()]
    return lines[-1].strip() if lines else "unknown error"


def run_case(
    case: StressCase, *, theorem_max_states: int = MAX_STATES
) -> CaseResult:
    """Execute one schedule and grade it; exceptions become failures."""
    try:
        result = run_experiment(build_spec(case))
        violations = check_case(
            result, case, theorem_max_states=theorem_max_states
        )
        signature = result.trace.signature()
        result.release()
    except Exception:
        return CaseResult(case=case, error=traceback.format_exc(limit=12))
    return CaseResult(
        case=case, violations=tuple(violations), trace_signature=signature
    )


def exec_run_case(payload: dict) -> CaseResult:
    """Worker entry point for the parallel engine (plain-data payload)."""
    case = case_from_dict(payload["case"])
    return run_case(
        case, theorem_max_states=int(payload["theorem_max_states"])
    )


@dataclass
class SweepReport:
    """Aggregate outcome of one seed block."""

    profile: str
    base_seed: int
    schedules: int
    cases_run: int = 0
    crash_events: int = 0
    partition_events: int = 0
    duplicate_cases: int = 0
    jobs: int = 1
    cache_hits: int = 0
    failures: list[CaseResult] = field(default_factory=list)
    reproducers: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"stress sweep: {self.cases_run}/{self.schedules} schedules "
            f"(profile={self.profile}, seeds {self.base_seed}.."
            f"{self.base_seed + self.schedules - 1}"
            + (f", jobs={self.jobs}" if self.jobs > 1 else "")
            + ")",
            f"  injected: {self.crash_events} crashes, "
            f"{self.partition_events} partitions, "
            f"{self.duplicate_cases} duplicate-injecting cases",
        ]
        if self.cache_hits:
            lines.append(
                f"  cache: {self.cache_hits}/{self.schedules} "
                "schedules served from the result cache"
            )
        if self.ok:
            lines.append("  all invariants held")
        else:
            lines.append(f"  FAILURES: {len(self.failures)}")
            for fr in self.failures:
                repro = fr.shrunk if fr.shrunk is not None else fr.case
                lines.append(f"    seed {fr.case.seed}: {fr.headline()}")
                lines.append(f"      reproducer: {repro.describe()}")
        return "\n".join(lines)


def sweep(
    schedules: int,
    *,
    base_seed: int = 0,
    profile: StressProfile = DEFAULT_PROFILE,
    shrink: bool = True,
    max_shrink_attempts: int = 150,
    fail_fast: bool = False,
    out_dir: Path | None = None,
    run: Callable[..., CaseResult] = run_case,
    progress: Callable[[int, CaseResult], None] | None = None,
    jobs: int = 1,
    cache: "ResultCache | None" = None,
) -> SweepReport:
    """Run ``schedules`` generated cases for seeds ``base_seed..``.

    ``run`` is injectable so tests can exercise the sweep/shrink/dump
    plumbing against synthetic failures without paying for simulations.

    ``jobs > 1`` (or a ``cache``) routes execution through the
    :mod:`repro.exec` engine: cases run across crash-isolated worker
    processes and merge back in seed order, so the report is identical to
    the serial one (the equivalence property test pins this).  Shrinking
    stays serial per failure, in the parent, exactly as before -- except
    for schedules that *crashed their worker*, which are never re-run
    in-process.  ``progress`` is then called in completion order with the
    completed-count as its index.
    """
    report = SweepReport(
        profile=profile.name,
        base_seed=base_seed,
        schedules=schedules,
        jobs=max(1, jobs),
    )

    def account(case: StressCase) -> None:
        report.cases_run += 1
        report.crash_events += case.crash_count
        report.partition_events += case.partition_count
        if case.duplicate_rate:
            report.duplicate_cases += 1

    def record_failure(result: CaseResult, *, shrinkable: bool) -> CaseResult:
        if shrink and shrinkable:
            def fails(candidate: StressCase) -> bool:
                return run(
                    candidate,
                    theorem_max_states=profile.theorem_max_states,
                ).failed

            shrunk = shrink_case(
                result.case, fails, max_attempts=max_shrink_attempts
            )
            if shrunk != result.case:
                result = CaseResult(
                    case=result.case,
                    violations=result.violations,
                    error=result.error,
                    shrunk=shrunk,
                    trace_signature=result.trace_signature,
                )
        report.failures.append(result)
        if out_dir is not None:
            report.reproducers.append(dump_reproducer(result, out_dir))
        return result

    if jobs > 1 or cache is not None:
        _parallel_sweep(report, profile, run, progress, fail_fast,
                        record_failure, account, jobs, cache)
        return report

    for index in range(schedules):
        seed = base_seed + index
        case = generate_case(seed, profile)
        result = run(case, theorem_max_states=profile.theorem_max_states)
        account(case)
        if result.failed:
            result = record_failure(result, shrinkable=True)
            if fail_fast:
                if progress is not None:
                    progress(index, result)
                break
        if progress is not None:
            progress(index, result)
    return report


def _parallel_sweep(
    report: SweepReport,
    profile: StressProfile,
    run: Callable[..., CaseResult],
    progress: Callable[[int, CaseResult], None] | None,
    fail_fast: bool,
    record_failure: Callable[..., CaseResult],
    account: Callable[[StressCase], None],
    jobs: int,
    cache: "ResultCache | None",
) -> None:
    """Engine-backed sweep body: fan out, merge in seed order, then
    shrink/dump failures serially exactly like the serial loop."""
    from repro.exec.runner import ParallelRunner
    from repro.exec.tasks import Task

    if run is not run_case:
        raise ValueError(
            "parallel/cached sweeps ship the canonical run_case to "
            "workers; an injected runner requires jobs=1 and no cache"
        )
    if fail_fast:
        raise ValueError("fail_fast requires jobs=1 and no cache")

    cases = [
        generate_case(report.base_seed + index, profile)
        for index in range(report.schedules)
    ]
    tasks = [
        Task(
            fn="repro.stress.sweep:exec_run_case",
            payload={
                "case": case_to_dict(case),
                "theorem_max_states": profile.theorem_max_states,
            },
            label=f"seed {case.seed}",
        )
        for case in cases
    ]

    def on_done(done_count: int, outcome) -> None:
        if progress is not None:
            progress(done_count - 1, _outcome_to_result(outcome, cases))

    runner = ParallelRunner(jobs=max(1, jobs), cache=cache)
    outcomes = runner.map(tasks, progress=on_done)

    for case, outcome in zip(cases, outcomes):
        account(case)
        if outcome.cached:
            report.cache_hits += 1
        result = _outcome_to_result(outcome, cases)
        if result.failed:
            # A schedule that killed its worker process must never be
            # re-executed in the parent; everything else shrinks as usual.
            record_failure(result, shrinkable=not outcome.crashed)


def _outcome_to_result(outcome, cases: list[StressCase]) -> CaseResult:
    """Convert an engine outcome back into the sweep's CaseResult."""
    if outcome.ok:
        return outcome.value
    return CaseResult(case=cases[outcome.index], error=outcome.error)


# ---------------------------------------------------------------------------
# Reproducer files
# ---------------------------------------------------------------------------
def dump_reproducer(result: CaseResult, out_dir: Path) -> Path:
    """Write a failing case (and its shrunk form) as replayable JSON."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "case": case_to_dict(result.case),
        "shrunk": (
            case_to_dict(result.shrunk) if result.shrunk is not None else None
        ),
        "violations": list(result.violations),
        "error": result.error,
    }
    path = out_dir / f"stress-repro-seed{result.case.seed}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_reproducer(path: Path) -> tuple[StressCase, dict]:
    """Load a reproducer; returns (case to replay, full payload).

    Replays the shrunk case when one was recorded -- that is the point
    of shrinking -- with the original still available in the payload.
    """
    data = json.loads(Path(path).read_text())
    chosen = data.get("shrunk") or data["case"]
    return case_from_dict(chosen), data
