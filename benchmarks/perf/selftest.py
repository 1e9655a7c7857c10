"""Proof that the oracles bite: each workload family's grading is fed
one sound and one doctored result, and must count zero failures for
the first and at least one for the second.

- **dropped output** (``live_saturated``): a trace with every job's
  closed-form output, then the same trace minus one;
- **duplicated put** (``service_crash``): a read-back audit where one
  key's version is one above its acked puts (and one where it is lost);
- **violated invariant** (``sim_stress``): a real sweep in which one
  schedule's finished run has its history table inflated past the
  O(n.f) bound before ``check_case`` grades it.

Run with ``python -m benchmarks.perf selftest`` (a fresh interpreter
through ``run.py --worker selftest``, like every other repetition).
"""

from __future__ import annotations

from typing import Any


def dropped_output() -> tuple[int, int]:
    from repro.live.verify import pipeline_reference
    from repro.runtime.trace import EventKind, SimTrace

    from benchmarks.perf import live_saturated

    jobs = 20
    reference = pipeline_reference(live_saturated.N, jobs)

    def failed_without(dropped: set[int]) -> int:
        trace = SimTrace()
        for job, value in reference.items():
            if job not in dropped:
                trace.record(
                    0.01 * job, EventKind.OUTPUT, live_saturated.N - 1,
                    value=("done", job, value),
                )
        return live_saturated.grade(trace, jobs)[1]

    return failed_without(set()), failed_without({7})


def duplicated_put() -> tuple[int, int]:
    from benchmarks.perf import service_crash

    expected = {"k0": 3, "k1": 5, "k2": 1}
    sound = [{"version": 3}, {"version": 5}, {"version": 1}]
    # k0 applied twice; k2's acked write never came back.
    doctored = [{"version": 4}, {"version": 5}, None]

    def failed_with(replies: list[Any]) -> int:
        faults = service_crash.audit_mismatches(expected, replies)
        return service_crash.grade(0, faults)[0]

    return failed_with(sound), failed_with(doctored)


def violated_invariant() -> tuple[int, int]:
    from repro.core.tokens import RecoveryToken
    from repro.harness.runner import run_experiment
    from repro.stress import CaseResult, build_spec, check_case, sweep

    from benchmarks.perf import sim_stress

    def failed_with(bad_seed: int | None) -> int:
        def run(case: Any, *, theorem_max_states: int = 200) -> Any:
            result = run_experiment(build_spec(case))
            if case.seed == bad_seed:
                history = result.protocols[0].history
                for version in range(1, 400):
                    history.observe_token(RecoveryToken(0, version, 0))
            return CaseResult(
                case=case,
                violations=tuple(
                    check_case(
                        result, case, theorem_max_states=theorem_max_states
                    )
                ),
            )

        return len(
            sim_stress.grade(sweep(3, base_seed=0, shrink=False, run=run))
        )

    return failed_with(None), failed_with(1)


CHECKS = {
    "dropped output": dropped_output,
    "duplicated put": duplicated_put,
    "violated invariant": violated_invariant,
}


def worker(params: dict[str, Any]) -> dict[str, Any]:
    """``{check: [failed on the sound input, failed on the doctored]}``."""
    return {name: list(check()) for name, check in CHECKS.items()}


def bites(report: dict[str, list[int]]) -> bool:
    return all(
        sound == 0 and doctored > 0 for sound, doctored in report.values()
    )
