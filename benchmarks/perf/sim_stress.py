"""``sim_stress``: the randomized fault-schedule sweep, serial.

The same ``core`` / ``storage`` / ``sim`` layers as ``sim_steady`` used
differently: hundreds of short runs dominated by restart, replay,
rollback, token handling and the ``analysis`` oracles (three quarters
of the time), so a steady-state gain that taxes recovery shows here.
The op is one generated schedule, run and graded by ``check_case``; a
failed op is a schedule with a violated invariant.

Schedule cost is heavy-tailed (p50 40 ms, p99 240 ms), so what decides
the spread between seeds is how many *distinct* schedules a run covers:
the run spends its whole budget on one pass over the seed's own block of
schedule seeds, split over ``CHUNKS`` fresh interpreters (each gives one
``setup_s`` sample).  Every chunk's timings are read at reference host
speed (``proc.HostProbe``) and joined into one batch due at the start.
"""

from __future__ import annotations

import time
from typing import Any

from benchmarks.perf import proc
from benchmarks.perf.common import Outcome, batch_latency
from benchmarks.perf.stats import median, percentile

#: schedules per second of ``--seconds`` (one costs ~44 ms)
SCHEDULES_PER_SECOND = 30
CHUNKS = 3
#: Schedule seeds come from ``0 .. SCHEDULE_SPACE - 1``; every one of
#: them was run at the commit that added this benchmark.
SCHEDULE_SPACE = 10_000
#: The seven that failed there, all with ``RuntimeError: no non-orphan
#: checkpoint for Token(...)`` out of ``_rollback`` (README.md has the
#: reproducer for each).  The benchmark contract wants workloads on which
#: no operation fails, so these are left out *by name*; any other
#: schedule that starts to fail is counted in ``failed``.
KNOWN_FAILING = frozenset({1725, 2193, 4704, 6397, 6865, 7578, 8103})


def schedule_count(seconds: float, passes: int = 1) -> int:
    per_chunk = round(SCHEDULES_PER_SECOND * seconds / passes) // CHUNKS
    return CHUNKS * max(1, per_chunk)


def planned_ops(seed: int, seconds: float) -> int:
    return schedule_count(seconds)


def schedule_seeds(start: int, total: int) -> list[int]:
    """``total`` consecutive schedule seeds from ``start`` on, wrapping
    around the space, known failures skipped."""
    out: list[int] = []
    at = start
    while len(out) < total:
        if at % SCHEDULE_SPACE not in KNOWN_FAILING:
            out.append(at % SCHEDULE_SPACE)
        at += 1
    return out


def contiguous(seeds: list[int]) -> list[tuple[int, int]]:
    """``seeds`` as ``(base_seed, count)`` runs, which is what ``sweep``
    takes."""
    runs: list[tuple[int, int]] = []
    for seed in seeds:
        if runs and seed == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((seed, 1))
    return runs


# ---------------------------------------------------------------------------
# Worker (fresh interpreter)
# ---------------------------------------------------------------------------
def grade(report: Any) -> list[str]:
    """One line per schedule that violated an invariant (or raised)."""
    return [f"seed {f.case.seed}: {f.headline()}" for f in report.failures]


def worker(params: dict[str, Any]) -> dict[str, Any]:
    from repro.stress import sweep

    tracer = _TracedSweep() if params["traced"] else None
    done_at: list[float] = []
    cpu_start = proc.cpu_seconds()
    start = time.monotonic()
    reports = [
        sweep(
            count,
            base_seed=base,
            shrink=False,
            progress=lambda index, result: done_at.append(time.monotonic()),
            **({"run": tracer.run} if tracer else {}),
        )
        for base, count in contiguous(params["schedule_seeds"])
    ]
    end = time.monotonic()
    out: dict[str, Any] = {
        "setup_s": start - params["launched_at"],
        "window": [start, end],
        "ops": sum(r.cases_run for r in reports),
        "cpu_s": proc.cpu_seconds() - cpu_start,
        "rss_mb": proc.peak_rss_mb(),
        "schedule_s": [
            b - a for a, b in zip([start] + done_at, done_at)
        ],
        "failures": [line for r in reports for line in grade(r)],
        "crashes": sum(r.crash_events for r in reports),
    }
    if tracer is not None:
        out.update(tracer.report(replay=params["replay"]))
    return out


class _TracedSweep:
    """``sweep(run=..., progress=...)`` hooks that span every phase.

    ``sweep`` calls ``generate_case`` between one schedule's ``progress``
    and the next one's ``run``, so that gap *is* the generate span -- no
    patching needed.
    """

    def __init__(self) -> None:
        from benchmarks.perf.artifacts import SimCounts
        from benchmarks.perf.spans import SpanRecorder, timed_protocol

        self.recorder = SpanRecorder()
        self.protocol = timed_protocol(self.recorder)
        self.counts = SimCounts()
        self.samples: list[Any] = []
        self._generate = self.recorder.begin("stress.generate")

    def run(self, case: Any, *, theorem_max_states: int = 200) -> Any:
        import traceback
        from dataclasses import replace

        from repro.harness.runner import run_experiment
        from repro.stress import CaseResult, build_spec, check_case

        from benchmarks.perf import replay
        from benchmarks.perf.spans import AppProxy

        recorder = self.recorder
        recorder.end(self._generate)
        schedule = recorder.begin("stress.schedule")
        try:
            spec = build_spec(case)
            spec = replace(
                spec,
                protocol=self.protocol,
                app=AppProxy(spec.app, step=1 << 30, recorder=recorder),
            )
            index = recorder.begin("stress.simulate")
            try:
                result = run_experiment(spec)
            finally:
                recorder.end(index)
            index = recorder.begin("stress.oracle")
            try:
                violations = check_case(
                    result, case, theorem_max_states=theorem_max_states
                )
            finally:
                recorder.end(index)
        except Exception:
            return CaseResult(case=case, error=traceback.format_exc(limit=12))
        finally:
            recorder.end(schedule)
            self._generate = recorder.begin("stress.generate")
        self.counts.add(result)
        for protocol in result.protocols[:2]:
            self.samples += replay.samples_from_log(
                protocol.pid, protocol.storage.log, limit=40
            )
        return CaseResult(case=case, violations=tuple(violations))

    def report(self, *, replay: bool) -> dict[str, Any]:
        self.recorder.end(self._generate)
        out = {
            "span_problems": self.recorder.problems(),
            "spans": self.recorder.summary(),
            "counts": self.counts.metrics(),
        }
        if replay:
            from benchmarks.perf.replay import replay_all

            # Clocks of different system sizes cannot be merged with
            # each other: replay the largest same-size group.
            by_size: dict[int, list[Any]] = {}
            for sample in self.samples:
                by_size.setdefault(
                    len(sample.envelope.clock), []
                ).append(sample)
            out["replay"] = replay_all(max(by_size.values(), key=len))
        return out


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------
def _sweep(
    seeds: list[int], traced: bool, seconds: float, probe: proc.HostProbe
) -> list[dict[str, Any]]:
    """One pass over ``seeds``, a fresh interpreter per chunk; every
    chunk's timings scaled to reference host speed."""
    chunks = []
    per_chunk = len(seeds) // CHUNKS
    for index in range(CHUNKS):
        chunk = proc.run_worker(
            "sim_stress",
            {
                "schedule_seeds": seeds[
                    index * per_chunk:(index + 1) * per_chunk
                ],
                "traced": traced,
                # One chunk's messages are enough for replay.
                "replay": traced and index == CHUNKS - 1,
            },
            timeout=60.0 + 6.0 * seconds,
        )
        chunk["slowdown"] = slow = probe.slowdown(*chunk["window"])
        chunk["as_timed_s"] = sum(chunk["schedule_s"])
        chunk["schedule_s"] = [cost / slow for cost in chunk["schedule_s"]]
        chunk["cpu_s"] /= slow
        chunks.append(chunk)
    return chunks


def measure(
    seed: int, seconds: float, traced: bool, workdir: str,
    probe: proc.HostProbe,
) -> Outcome:
    # A traced run sweeps half the schedules twice, plain and traced:
    # the difference is the overhead of the span timers.
    # Benchmark seed s owns the block that starts at s x (schedules per
    # run): blocks of different seeds are disjoint until the space wraps.
    seeds = schedule_seeds(
        seed * schedule_count(seconds), schedule_count(seconds, 1 + traced)
    )
    plain = _sweep(seeds, False, seconds, probe)
    timed = _sweep(seeds, True, seconds, probe) if traced else []
    chunks = plain + timed
    problems = [f for c in chunks for f in c["failures"]]
    attempted = len(seeds) * (1 + traced)
    failed = len(problems) + attempted - sum(c["ops"] for c in chunks)

    costs = [cost for c in plain for cost in c["schedule_s"]]
    ops = len(costs)
    detail = {
        "first_schedule_seed": seeds[0],
        "schedules": ops,
        "crashes_injected": sum(c["crashes"] for c in plain),
        "host_slowdown_by_chunk": [c["slowdown"] for c in chunks],
        "ops_per_s_as_timed": ops / sum(c["as_timed_s"] for c in plain),
        "problems": problems,
        "samples": {"latency": ops, "setup_s": len(chunks)},
    }
    if not traced:
        done, stamps = 0.0, []
        for count, cost in enumerate(costs, start=1):
            done += cost
            stamps.append((count, done))
        metrics = {
            "setup_s": median([c["setup_s"] for c in chunks]),
            "ops_per_s": ops / sum(costs),
            "cpu_ms_per_op": sum(c["cpu_s"] for c in plain) / ops * 1e3,
            "peak_rss_mb": median([c["rss_mb"] for c in chunks]),
            **batch_latency(stamps, 0.0, ops),
        }
        return Outcome(attempted, failed, not problems, metrics, detail)

    from benchmarks.perf.spans import span_metrics

    problems += [f for c in timed for f in c["span_problems"]]
    spans = _merge_spans([c["spans"] for c in timed])
    traced_costs = [cost for c in timed for cost in c["schedule_s"]]
    schedule = spans["stress.schedule"]
    metrics = {
        **span_metrics(spans),
        "sim.overhead_share": (
            spans["stress.simulate"]["self_ns"]
            / spans["stress.simulate"]["total_ns"]
        ),
        "stress.oracle_share": (
            spans["stress.oracle"]["total_ns"]
            / (schedule["total_ns"] + spans["stress.generate"]["total_ns"])
        ),
        "stress.generate_ms": (
            spans["stress.generate"]["total_ns"] / schedule["count"] / 1e6
        ),
        "stress.schedule_p50_ms": percentile(costs, 0.50) * 1e3,
        "stress.schedule_p99_ms": percentile(costs, 0.99) * 1e3,
        **timed[-1]["counts"],
        **timed[-1]["replay"],
        "bench.trace_overhead_pct": (
            sum(traced_costs) / sum(costs) - 1.0
        ) * 100.0,
        "bench.host_slowdown": median([c["slowdown"] for c in chunks]),
    }
    detail["spans"] = spans
    return Outcome(attempted, failed, not problems, metrics, detail)


def _merge_spans(
    summaries: list[dict[str, dict[str, float]]]
) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, row in summary.items():
            into = merged.setdefault(
                name, {"count": 0, "total_ns": 0, "self_ns": 0}
            )
            for key in into:
                into[key] += row[key]
    return merged
