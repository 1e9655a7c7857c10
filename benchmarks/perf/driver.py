"""One measured run of one workload: the result line and its envelope."""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from typing import Any

from benchmarks.perf import proc
from benchmarks.perf.common import Outcome, load_check
from benchmarks.perf.spec import ROOT, Spec, load_spec


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def result_line(spec: Spec, outcome: Outcome, traced: bool) -> dict[str, Any]:
    """The contract's result object; raises if a name is missing, extra
    or not a finite number."""
    metrics = dict(outcome.metrics)
    if traced:
        # A layer that did no work in this workload reports zero.
        for name in spec.per_layer:
            metrics.setdefault(name, 0.0)
    spec.check_metrics(metrics, traced)
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")
    units = spec.metrics(traced)
    return {
        "correct": bool(outcome.correct and outcome.failed == 0),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name].unit}
            for name, value in metrics.items()
        },
    }


def lost_run(spec: Spec, traced: bool, planned: int, why: str) -> Outcome:
    """A run whose worker died or hung: every planned op failed and no
    timing is worth reading (all metrics 0)."""
    return Outcome(
        attempted=planned,
        failed=planned,
        correct=False,
        metrics=dict.fromkeys(spec.metrics(traced), 0.0),
        detail={"problems": [why]},
    )


def measure(
    spec: Spec, workload: str, seed: int, seconds: float, traced: bool
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run ``workload`` once; return ``(result line, envelope)``."""
    module = importlib.import_module(f"benchmarks.perf.{workload}")
    workdir = os.path.join(
        ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}"
    )
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    load, invalid = load_check()
    started = time.monotonic()
    try:
        with proc.HostProbe() as probe:
            try:
                outcome: Outcome = module.measure(
                    seed, seconds, traced, workdir, probe
                )
            except proc.WorkerError as error:
                # Counted, not raised: the run still prints a result.
                outcome = lost_run(
                    spec, traced, module.planned_ops(seed, seconds),
                    str(error),
                )
        host_slowdown = probe.overall()
    finally:
        proc.kill_stragglers(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
    envelope = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_average_at_start": load,
        "host_slowdown": host_slowdown,
        "wall_s": time.monotonic() - started,
        "invalid": invalid + outcome.invalid,
        "detail": outcome.detail,
    }
    return result_line(spec, outcome, traced), envelope


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/perf/run.py")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--envelope", help="also write run context (git rev, load, "
        "validity, per-repetition detail) to this JSON file",
    )
    # Internal: one repetition inside a fresh interpreter.
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--params", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"error: {ROOT}/src/repro not found -- the benchmark measures "
            "the repository it is checked out in",
            file=sys.stderr,
        )
        return 2
    if args.worker:
        module = importlib.import_module(f"benchmarks.perf.{args.worker}")
        print(json.dumps(module.worker(json.loads(args.params))))
        return 0

    spec = load_spec()
    if args.workload not in spec.workloads:
        parser.error(
            f"--workload must be one of {', '.join(spec.workloads)}"
        )
    seconds = args.seconds if args.seconds else float(spec.run_seconds)
    result, envelope = measure(
        spec, args.workload, args.seed, seconds, bool(args.trace)
    )
    for reason in envelope["invalid"]:
        print(f"invalid run: {reason}", file=sys.stderr)
    for problem in envelope["detail"].get("problems", ()):
        print(f"oracle: {problem}", file=sys.stderr)
    for note in envelope["detail"].get("uncounted", ()):
        print(f"oracle (reported, not counted): {note}", file=sys.stderr)
    if args.envelope:
        with open(args.envelope, "w", encoding="utf-8") as fh:
            json.dump(dict(envelope, result=result), fh, indent=2)
            fh.write("\n")
    print(json.dumps(result))
    return 0
