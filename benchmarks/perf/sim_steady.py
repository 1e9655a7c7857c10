"""``sim_steady``: the deterministic simulator, failure-free, n=16.

One process, no I/O: ``core`` (FTVC + history + the Fig. 4 receive
step) does most of the work and ``live.*`` / ``service`` do none, so a
hot-path change in the protocol must show here and a transport change
must not.  ``RandomRoutingApp`` keeps 32 work items hopping between 16
``DamaniGargProcess`` instances; the op is one application delivery.

Every repetition is a fresh interpreter running the *same* simulation
(the seed fixes it), so repetitions differ only by what the host did to
them -- which on a shared sandbox is a lot (``proc.HostProbe``).  Each
repetition's timings are therefore read at reference host speed, and
the run reports the median repetition.  Repetitions are short (~1.2 s)
so that a dozen fit.  The full ground-truth oracle (``check_recovery``)
grades the first repetition; the others must reproduce its digest bit
for bit.
"""

from __future__ import annotations

import time
from typing import Any

from benchmarks.perf import proc
from benchmarks.perf.common import (
    Outcome,
    at_reference_speed,
    batch_latency,
    median_by_name,
)
from benchmarks.perf.stats import median

N = 16
ITEMS_PER_PROCESS = 2
#: hops per work item for each second of ``--seconds``; 15 s -> 360 hops
#: -> 11 552 deliveries, about 1.2 s of simulation per repetition
HOPS_PER_SECOND = 24
MIN_REPS = 3


def hops_for(seconds: float) -> int:
    return max(4, round(HOPS_PER_SECOND * seconds))


def expected_deliveries(hops: int) -> int:
    return N * ITEMS_PER_PROCESS * (hops + 1)


def planned_ops(seed: int, seconds: float) -> int:
    return MIN_REPS * expected_deliveries(hops_for(seconds))


# ---------------------------------------------------------------------------
# Worker (fresh interpreter)
# ---------------------------------------------------------------------------
def worker(params: dict[str, Any]) -> dict[str, Any]:
    from repro.analysis import check_recovery
    from repro.analysis.metrics import measure_overhead
    from repro.apps import RandomRoutingApp
    from repro.core.recovery import DamaniGargProcess
    from repro.harness.runner import ExperimentSpec, run_experiment

    from benchmarks.perf import replay
    from benchmarks.perf.artifacts import SimCounts
    from benchmarks.perf.spans import AppProxy, SpanRecorder, timed_protocol

    hops = int(params["hops"])
    expected = expected_deliveries(hops)
    recorder = SpanRecorder() if params["traced"] else None
    app = AppProxy(
        RandomRoutingApp(
            hops=hops, seeds=tuple(range(N)), initial_items=ITEMS_PER_PROCESS
        ),
        step=max(1, expected // 400),
        recorder=recorder,
    )
    spec = ExperimentSpec(
        n=N,
        app=app,
        protocol=(
            timed_protocol(recorder) if recorder else DamaniGargProcess
        ),
        seed=int(params["seed"]),
        # Every hop takes at most 1.5 virtual time units.
        horizon=hops * 1.5 + 10.0,
    )
    cpu_start = proc.cpu_seconds()
    root = recorder.begin("sim.run") if recorder else None
    result = run_experiment(spec)
    if recorder:
        recorder.end(root)
    end = time.monotonic()
    cpu = proc.cpu_seconds() - cpu_start
    rss = proc.peak_rss_mb()

    delivered = result.total_delivered
    first = app.stamps[0][1] if app.stamps else end
    # The last stamp may precede the final delivery by up to one step.
    stamps = app.stamps + [(app.handled, end)]
    report: dict[str, Any] = {
        "setup_s": first - params["launched_at"],
        "window": [first, end],
        "ops": delivered,
        "expected": expected,
        "rss_mb": rss,
        "metrics": {
            "ops_per_s": delivered / (end - first),
            "cpu_ms_per_op": cpu / max(1, delivered) * 1e3,
            **batch_latency(stamps, first, expected),
        },
        "digest": [
            delivered,
            result.sim.events_fired,
            repr(result.sim.now),
            [p.executor.state.acc for p in result.protocols],
        ],
        "violations": [],
    }
    if params["oracle"]:
        verdict = check_recovery(result)
        report["violations"] = [str(v) for v in verdict.violations]
        if not measure_overhead(result).history_within_bound:
            report["violations"].append("history exceeds the O(n.f) bound")
    if recorder:
        report["span_problems"] = recorder.problems()
        report["spans"] = recorder.summary()
        counts = SimCounts()
        counts.add(result)
        report["counts"] = counts.metrics()
    if params["replay"]:
        samples = []
        for protocol in result.protocols:
            samples += replay.samples_from_log(
                protocol.pid, protocol.storage.log
            )
        report["replay"] = replay.replay_all(samples)
    return report


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------
def measure(
    seed: int, seconds: float, traced: bool, workdir: str,
    probe: proc.HostProbe,
) -> Outcome:
    hops = hops_for(seconds)
    budget = 60.0 + 6.0 * seconds
    started = time.monotonic()
    reps: list[dict[str, Any]] = []
    # A traced run alternates plain and traced repetitions so the
    # overhead of the span timers is measured, not assumed.  Repeat for
    # as long as one more repetition still fits into ``seconds``.
    while (
        len(reps) < MIN_REPS + traced
        or (time.monotonic() - started) * (1 + 1 / len(reps)) < seconds
    ):
        rep = proc.run_worker(
            "sim_steady",
            {
                "seed": seed,
                "hops": hops,
                "traced": traced and len(reps) % 2 == 1,
                "oracle": not reps,
                # One repetition's messages are enough for replay.
                "replay": traced and len(reps) == 1,
            },
            timeout=budget,
        )
        rep["slowdown"] = probe.slowdown(*rep["window"])
        rep["as_timed"] = rep["metrics"]["ops_per_s"]
        rep["metrics"] = at_reference_speed(rep["metrics"], rep["slowdown"])
        reps.append(rep)
    plain = [r for r in reps if "spans" not in r]
    reference = reps[0]
    failed = 0
    problems = list(reference["violations"])
    for index, rep in enumerate(reps):
        if rep["digest"] != reference["digest"]:
            problems.append(f"repetition {index} diverged from the first")
            failed += rep["expected"]
        else:
            failed += rep["expected"] - rep["ops"]
    failed += len(reference["violations"])
    attempted = sum(r["expected"] for r in reps)

    typical = median_by_name([r["metrics"] for r in plain])
    detail = {
        "repetitions": len(reps),
        "deliveries_per_repetition": reference["expected"],
        "host_slowdown_by_repetition": [r["slowdown"] for r in reps],
        "ops_per_s_as_timed": median([r["as_timed"] for r in plain]),
        "problems": problems,
        "samples": {
            "ops_per_s": len(plain), "setup_s": len(reps),
            "latency": reference["expected"],
        },
    }
    if not traced:
        metrics = {
            "setup_s": median([r["setup_s"] for r in reps]),
            "peak_rss_mb": median([r["rss_mb"] for r in plain]),
            **typical,
        }
        return Outcome(attempted, failed, not problems, metrics, detail)

    from benchmarks.perf.spans import span_metrics

    timed = [r for r in reps if "spans" in r]
    problems += [p for r in timed for p in r["span_problems"]]
    traced_rate = median([r["metrics"]["ops_per_s"] for r in timed])
    spans = timed[-1]["spans"]
    run_span = spans["sim.run"]
    metrics = {
        **span_metrics(spans),
        "sim.overhead_share": run_span["self_ns"] / run_span["total_ns"],
        **timed[0]["counts"],
        **timed[0]["replay"],
        "bench.trace_overhead_pct": (
            typical["ops_per_s"] / traced_rate - 1.0
        ) * 100.0,
        "bench.host_slowdown": median([r["slowdown"] for r in reps]),
    }
    detail["spans"] = spans
    return Outcome(attempted, failed, not problems, metrics, detail)
