"""``live_saturated``: a real two-node TCP cluster driven past its knee.

``run_cluster(load_spec(n=2, rate=16000, ...))`` -- one node process per
core, ``FileStableStorage``, binary wire, gossip + GC + compaction on.
The open-loop source in node 0 offers more than twice what the pair can
commit, so a backlog stands from the first tenth of a second and
``ops_per_s`` is capacity, not offered load: ``live.transport``,
``live.wire``, ``live.framing``, ``live.storage`` group commit and
``live.env`` trace batching do most of the work, ``core`` little
(2-entry clocks) and recovery none.  The op is one job committed at the
last stage; ``check_live_run`` grades every output against the
pipeline's closed form.

Capacity is not one number here.  Every storage barrier re-pickles the
whole image, and node 0's image holds its Remark-1 send log, which only
grows: 4 KB at boot, 2.2 MB after 20k jobs, 200-400 ms per barrier by
then.  So capacity falls with run length (6.8k jobs/s over 12k jobs,
5.6k over 16k and 20k, 4.2k over 27k) and, once single barriers are a
tenth of the active window, how many of them land inside it decides the
cluster's number: at 16000/s one cluster to the next spreads 8% over
12k jobs (quartiles, 12 clusters), 19% over 16k, 27% over 20k, 25% over
27k.  A run boots ``CLUSTERS`` clusters of 12k jobs in turn and reports
the median one: the longest shape whose spread a median of six brings
under the metric's bound.  The O(state) term that longer runs would
show is read directly instead, as ``live.storage.persist_ms_end_image``
against ``persist_ms_small`` in the traced run.

With the backlog standing, a job's wait says nothing the throughput
does not, so the latency metrics treat the jobs as one batch due when
the source starts (see ``common``).  Both cores are busy, so the host
probe has no idle core to run on and its reading is not used here.

The harness tails ``trace_p1.jsonl`` and publishes the stop file as soon
as every output is on disk, so a cluster runs as long as the work does.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Any

from benchmarks.perf import proc
from benchmarks.perf.common import Outcome, batch_latency, median_by_name
from benchmarks.perf.stats import median, percentile

N = 2
RATE = 16000.0
CLUSTERS = 6
#: Jobs per cluster for each second of ``--seconds``.
JOBS_PER_SECOND = 800
START_AT = 0.25
#: All outputs are committed when the stop file appears, so the nodes
#: need no long drain before they exit.
LINGER_S = 0.3


def jobs_for(seed: int, seconds: float) -> int:
    # The live load source derives each job's payload from its id, so
    # the only input the seed can pick is how many jobs there are.
    share = random.Random(seed).uniform(0.98, 1.02)
    return max(50, int(JOBS_PER_SECOND * seconds * share))


def planned_ops(seed: int, seconds: float) -> int:
    return CLUSTERS * jobs_for(seed, seconds)


# ---------------------------------------------------------------------------
# Worker (fresh interpreter; spawns the node processes)
# ---------------------------------------------------------------------------
def _tail_outputs(
    path: str, jobs: int, stop_path: str, deadline: float,
    seen: dict[str, Any],
) -> None:
    """Count committed outputs as node 1 writes them; publish the stop
    file when all are there -- or at ``deadline``, so a hung node ends
    the run with missing outputs instead of hanging the benchmark."""
    position = count = 0
    while count < jobs and time.monotonic() < deadline:
        try:
            with open(path, "rb") as fh:
                fh.seek(position)
                data = fh.read()
        except FileNotFoundError:
            data = b""
        cut = data.rfind(b"\n") + 1
        if cut:
            count += data[:cut].count(b'"kind":"output"')
            position += cut
            if count and "first_output" not in seen:
                seen["first_output"] = time.monotonic()
        time.sleep(0.05 if count else 0.01)
    seen["timed_out"] = count < jobs
    with open(stop_path, "w", encoding="utf-8"):
        pass


def grade(trace: Any, jobs: int) -> tuple[int, int, list[str]]:
    """``check_live_run`` as counts: ``(committed, failed ops, what was
    wrong)``.  A job with no output or a wrong output is a failed op."""
    from repro.live.verify import check_live_run

    verdict = check_live_run(trace, n=N, jobs=jobs)
    missing = jobs - verdict.outputs_committed
    wrong = [f for f in verdict.failures if "never produced output" not in f]
    return verdict.outputs_committed, missing + len(wrong), verdict.failures


def worker(params: dict[str, Any]) -> dict[str, Any]:
    from repro.live.bench import active_window
    from repro.live.load import load_spec
    from repro.live.supervisor import run_cluster
    from repro.runtime.trace import EventKind

    workdir = params["workdir"]
    jobs = int(params["jobs"])
    cap = float(params["cap"])
    spec = load_spec(n=N, rate=RATE, duration=jobs / RATE, start_at=START_AT)
    # load_spec truncates rate x duration; pin the count we asked for.
    spec.jobs = jobs
    spec.app["jobs"] = jobs
    spec.run_seconds = cap
    spec.stop_path = os.path.join(workdir, "stop")
    spec.linger = LINGER_S
    seen: dict[str, Any] = {}
    tail = threading.Thread(
        target=_tail_outputs,
        args=(
            os.path.join(workdir, "trace_p1.jsonl"), jobs,
            spec.stop_path, time.monotonic() + cap, seen,
        ),
        daemon=True,
    )
    cpu_start = proc.cpu_seconds()
    tail.start()
    result = run_cluster(spec, workdir)
    tail.join(timeout=5.0)
    cpu = proc.cpu_seconds() - cpu_start
    rss = proc.peak_rss_mb()

    committed, failed, problems = grade(result.trace, jobs)
    crashed = [
        f"node p{pid} exited with code {code}"
        for pid, code in sorted(result.exit_codes.items())
        if code != 0
    ]
    if seen.get("timed_out"):
        crashed.append("outputs still missing at the run cap")
    window = active_window(result.trace)
    window_s = (window[1] - window[0]) if window else 0.0
    stamps = [
        (count, event.time)
        for count, event in enumerate(
            result.trace.events(EventKind.OUTPUT), start=1
        )
    ]
    # How far the in-cluster source ran behind its own schedule.
    lags = sorted(
        (event.time - (START_AT + index / RATE)) * 1e3
        for index, event in enumerate(
            result.trace.events(EventKind.SEND, pid=0)
        )
    )
    report: dict[str, Any] = {
        "setup_s": seen.get("first_output", time.monotonic())
        - params["launched_at"],
        "ops": committed,
        "jobs": jobs,
        "failed": failed + len(crashed),
        "problems": problems + crashed,
        "rss_mb": rss,
        "metrics": {
            "ops_per_s": committed / window_s if window_s else 0.0,
            "cpu_ms_per_op": cpu / max(1, committed) * 1e3,
            **batch_latency(stamps, START_AT, jobs),
        },
        "lag_p99_ms": percentile(lags, 0.99),
        "lag_max_ms": lags[-1] if lags else 0.0,
    }
    if params["traced"]:
        from benchmarks.perf import artifacts

        data_dir = os.path.join(workdir, "data")
        pids = list(range(N))
        ops = max(1, committed)
        layers = artifacts.live_counts(result.done, data_dir, ops)
        layers.update(
            artifacts.live_replay(
                data_dir, pids,
                artifacts.largest_image_pid(data_dir, pids),
                os.path.join(workdir, "replay"),
            )
        )
        layers["live.replayed_ms_per_op"] = artifacts.replayed_ms_per_op(
            layers,
            messages=N - 1,
            records=sum(d["trace_records"] for d in result.done.values())
            / ops,
            persists=layers["live.storage.persists_per_kop"] / 1e3,
        )
        layers["live.unattributed_ms_per_op"] = (
            cpu / ops * 1e3 - layers["live.replayed_ms_per_op"]
        )
        report["layers"] = layers
    return report


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------
def measure(
    seed: int, seconds: float, traced: bool, workdir: str,
    probe: proc.HostProbe,
) -> Outcome:
    jobs = jobs_for(seed, seconds)
    cap = max(30.0, 6.0 * seconds)
    # Per-layer numbers come from artifacts read after a cluster has
    # exited, so a traced run executes the same program: its last
    # cluster is the one read.  One cluster against the rest would
    # mostly show cluster-to-cluster spread, so the overhead reported is
    # what the half of the clusters that holds the traced one lost
    # against the other half (nothing, give or take that spread).
    runs = [
        proc.run_worker(
            "live_saturated",
            {
                "workdir": os.path.join(workdir, f"cluster{index}"),
                "jobs": jobs,
                "cap": cap,
                "traced": traced and index == CLUSTERS - 1,
            },
            timeout=cap + 45.0,
        )
        for index in range(CLUSTERS)
    ]
    problems = [p for r in runs for p in r["problems"]]
    attempted = sum(r["jobs"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    detail = {
        "jobs_per_cluster": jobs,
        "offered_rate": RATE,
        "ops_per_s_by_cluster": [r["metrics"]["ops_per_s"] for r in runs],
        "loadgen_lag_p99_ms": [r["lag_p99_ms"] for r in runs],
        "problems": problems,
        "samples": {"latency": jobs, "ops_per_s": CLUSTERS, "setup_s": CLUSTERS},
    }
    if not traced:
        metrics = {
            "setup_s": median([r["setup_s"] for r in runs]),
            "peak_rss_mb": median([r["rss_mb"] for r in runs]),
            **median_by_name([r["metrics"] for r in runs]),
        }
        return Outcome(attempted, failed, not problems, metrics, detail)
    timed = runs[-1]
    rates = [r["metrics"]["ops_per_s"] for r in runs]
    metrics = {
        **timed["layers"],
        "loadgen.lag_p99_ms": timed["lag_p99_ms"],
        "loadgen.lag_max_ms": timed["lag_max_ms"],
        "bench.trace_overhead_pct": (
            median(rates[-2::-2]) / median(rates[::-2]) - 1.0
        ) * 100.0,
        "bench.host_slowdown": probe.overall(),
    }
    return Outcome(attempted, failed, not problems, metrics, detail)
