"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

A 5%-size pass over all four workloads, both modes, asserting that every
name in ``BENCHMARK.json`` is emitted exactly once, finite and with its
unit; that spans have parents and non-negative self time; and that the
oracles bite (``selftest``).  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from benchmarks.perf import proc, selftest
from benchmarks.perf.spec import ROOT, load_spec

SPEC = load_spec()
SMOKE_SECONDS = 0.05 * SPEC.run_seconds


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate JSON keys in {keys}"
    return dict(pairs)


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", list(SPEC.workloads))
def test_every_contract_metric_is_emitted_once(workload, traced):
    done = subprocess.run(
        [
            sys.executable, proc.RUN_PY, "--workload", workload,
            "--seed", "0", "--seconds", str(SMOKE_SECONDS),
            "--trace", str(int(traced)),
        ],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(
        done.stdout.strip().splitlines()[-1], object_pairs_hook=_unique_keys
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    want = SPEC.metrics(traced)
    assert set(line["metrics"]) == set(want)
    for name, metric in want.items():
        got = line["metrics"][name]
        assert set(got) == {"value", "unit"}, name
        assert got["unit"] == metric.unit, name
        assert isinstance(got["value"], float), name
        assert math.isfinite(got["value"]), name
    if not traced:
        # End-to-end metrics are bounded as a share of the parent's
        # median, so none of them may read zero (except, at this size
        # only, late_share: a 5% batch is done within the lateness limit).
        for name, got in line["metrics"].items():
            assert got["value"] > 0 or name == "late_share", name


def test_spans_have_parents_and_non_negative_self_time():
    from repro.apps import RandomRoutingApp
    from repro.harness.runner import ExperimentSpec, run_experiment
    from repro.sim.failures import CrashPlan

    from benchmarks.perf.spans import AppProxy, SpanRecorder, timed_protocol

    recorder = SpanRecorder()
    root = recorder.begin("sim.run")
    result = run_experiment(
        ExperimentSpec(
            n=4,
            app=AppProxy(
                RandomRoutingApp(hops=40, seeds=(0, 1)), recorder=recorder
            ),
            protocol=timed_protocol(recorder),
            crashes=CrashPlan().crash(time=20.0, pid=1),
            horizon=80.0,
        )
    )
    recorder.end(root)
    assert result.total_restarts == 1
    assert recorder.problems() == []
    summary = recorder.summary()
    for name in (
        "core.recovery.receive", "core.recovery.restart",
        "core.recovery.checkpoint", "core.recovery.flush", "apps.handle",
    ):
        assert summary[name]["count"] > 0, name
        assert 0 <= summary[name]["self_ns"] <= summary[name]["total_ns"]
    # Everything but the root has a parent, and the root's children
    # cannot cover more than the root.
    assert [s[1] for s in recorder.spans].count(-1) == 1
    assert summary["sim.run"]["self_ns"] >= 0
    # handle runs inside receive: its time is not double counted.
    assert summary["apps.handle"]["total_ns"] <= (
        summary["core.recovery.receive"]["total_ns"]
        + summary["core.recovery.restart"]["total_ns"]
    )


def test_the_oracles_bite():
    report = proc.run_worker("selftest", {}, timeout=300.0)
    assert set(report) == set(selftest.CHECKS)
    assert selftest.bites(report), report


def test_a_lost_worker_is_counted_not_raised(monkeypatch):
    from benchmarks.perf import driver, sim_steady

    def hung(*args, **kwargs):
        raise proc.WorkerError("sim_steady worker exceeded its 66s budget")

    monkeypatch.setattr(proc, "run_worker", hung)
    result, envelope = driver.measure(SPEC, "sim_steady", 0, 1.0, False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["attempted"] == sim_steady.planned_ops(0, 1.0)
    assert set(result["metrics"]) == set(SPEC.end_to_end)
    assert "exceeded" in envelope["detail"]["problems"][0]


def test_stress_seeds_leave_out_the_known_failures_by_name():
    from benchmarks.perf import sim_stress

    seeds = sim_stress.schedule_seeds(1650, 330)   # 1650 .. 1980
    assert len(seeds) == len(set(seeds)) == 330
    assert 1725 in sim_stress.KNOWN_FAILING and 1725 not in seeds
    assert sim_stress.contiguous(seeds) == [(1650, 75), (1726, 255)]
    # A skip pushes the block one seed over its end, into the next one.
    assert set(seeds) & set(sim_stress.schedule_seeds(1980, 330)) == {1980}
    wrapped = sim_stress.schedule_seeds(9900, 330)  # 9900 .. 10229
    assert wrapped[0] == 9900 and wrapped[-1] == 229


def test_benchmark_refuses_to_run_without_the_repository(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: exit non-zero, print no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "benchmarks", "perf"),
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [
            sys.executable, "benchmarks/perf/run.py", "--workload",
            "sim_steady", "--seed", "0", "--seconds", "1", "--trace", "0",
        ],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
