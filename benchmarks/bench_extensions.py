"""Section 6.5 extensions, measured.

- **Output commit latency** vs. the stability gossip interval
  (``ProtocolConfig.gossip_interval``): outputs can only be released once
  their causal past is stable, and a process learns that only from the
  flushed frontiers its peers gossip, so the gossip cadence bounds the
  added latency -- the cost the paper's remark alludes to ("Before
  committing an output ... a process must make sure that it will never
  rollback the current state").  The other side of the trade is the
  gossip itself: every round costs n (n - 1) frontier messages, reported
  here per committed output.
- **Log/checkpoint garbage collection** (Remark 2): retained stable-store
  footprint with and without GC, under failures (GC must never break
  recovery -- oracle-checked).
"""

from repro.analysis import check_recovery
from repro.apps import PipelineApp, RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.reporting import format_table
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan
from repro.runtime.trace import EventKind


def run_pipeline(gossip_interval: float, seed: int = 1):
    spec = ExperimentSpec(
        n=4,
        app=PipelineApp(jobs=12),
        protocol=DamaniGargProcess,
        seed=seed,
        horizon=80.0,
        config=ProtocolConfig(
            checkpoint_interval=8.0,
            flush_interval=2.0,
            commit_outputs=True,
            gossip_interval=gossip_interval,
        ),
    )
    return run_experiment(spec)


def _commit_latencies(result) -> list[float]:
    emitted: dict = {}
    latencies = []
    for event in result.trace.events(EventKind.OUTPUT):
        if event.get("committed") is False:
            emitted[event["uid"]] = event.time
        elif event.get("committed") is True:
            latencies.append(event.time - emitted[event["uid"]])
    return latencies


def test_bench_output_commit_latency(benchmark, print_series):
    def sweep():
        rows = []
        for interval in (1.0, 3.0, 6.0, 12.0):
            result = run_pipeline(interval)
            latencies = _commit_latencies(result)
            assert len(latencies) == 12          # every job committed once
            rows.append(
                (
                    interval,
                    f"{sum(latencies) / len(latencies):.2f}",
                    f"{max(latencies):.2f}",
                    result.network.sent_count["frontier"] / len(latencies),
                    result.network.sent_count["app"],
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series(
        "output commit latency vs stability gossip interval (12 jobs)",
        format_table(
            ["gossip interval", "mean commit latency", "max",
             "frontier msgs / output", "app msgs"],
            rows,
        ),
    )
    means = [float(row[1]) for row in rows]
    # Longer gossip intervals mean later certification.
    assert means == sorted(means)


def run_gc(enable_gc: bool, seed: int):
    spec = ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=60, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=CrashPlan().crash(25.0, 1, 2.0).crash(55.0, 2, 2.0),
        seed=seed,
        horizon=120.0,
        config=ProtocolConfig(
            checkpoint_interval=6.0,
            flush_interval=2.0,
            enable_gc=enable_gc,
            gossip_interval=4.0,
        ),
    )
    return run_experiment(spec)


def test_bench_gc_space_reclamation(benchmark, print_series):
    def compare():
        rows = []
        for enabled in (False, True):
            entries = ckpts = 0
            for seed in (0, 1, 2):
                result = run_gc(enabled, seed)
                assert check_recovery(result).ok
                entries += sum(
                    p.storage.log.retained_stable_entries
                    for p in result.protocols
                )
                ckpts += sum(
                    len(p.storage.checkpoints) for p in result.protocols
                )
            rows.append(
                ("GC on" if enabled else "GC off", ckpts, entries)
            )
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    print_series(
        "Remark-2 GC: retained stable storage after 2 crashes (3 seeds)",
        format_table(
            ["config", "checkpoints retained", "log entries retained"], rows
        ),
    )
    off, on = rows
    assert on[1] < off[1]
    assert on[2] < off[2]
