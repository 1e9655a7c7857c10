"""``python -m benchmarks.perf``: run everything, compare, calibrate.

``run``        every workload (or one), each run a fresh ``run.py``
               process; prints every metric by name with its unit.
``compare``    two ``run --out`` files, metric by metric, against the
               bounds in ``BENCHMARK.json``; exit 1 on any breach.
``calibrate``  N runs per workload on N different seeds; prints each
               end-to-end metric's min / median / max and its quartile
               spread, and flags the ones wider than their bound.
``selftest``   feeds each oracle a sound and a doctored result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any

from benchmarks.perf.proc import RUN_PY
from benchmarks.perf.spec import Spec, load_spec
from benchmarks.perf.stats import median, quartile_spread, worsening

FORMAT = "perf-bench-v1"


def run_once(
    workload: str, seed: int, seconds: float, traced: bool
) -> dict[str, Any]:
    """One ``run.py`` invocation; returns its envelope (result inside)."""
    with tempfile.TemporaryDirectory() as tmp:
        envelope_path = os.path.join(tmp, "envelope.json")
        done = subprocess.run(
            [
                sys.executable, RUN_PY,
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(traced)),
                "--envelope", envelope_path,
            ],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{workload} run failed with exit code {done.returncode}"
            )
        with open(envelope_path, encoding="utf-8") as fh:
            return json.load(fh)


def summarise(envelopes: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold the runs of one workload and mode: every value kept, the
    median reported."""
    units = {
        name: got["unit"]
        for name, got in envelopes[0]["result"]["metrics"].items()
    }
    values = {
        name: [e["result"]["metrics"][name]["value"] for e in envelopes]
        for name in units
    }
    attempted = sum(e["result"]["attempted"] for e in envelopes)
    failed = sum(e["result"]["failed"] for e in envelopes)
    return {
        "metrics": {
            name: {
                "unit": units[name],
                "values": values[name],
                "median": median(values[name]),
            }
            for name in units
        },
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "correct": all(e["result"]["correct"] for e in envelopes),
        "invalid": sorted({r for e in envelopes for r in e["invalid"]}),
        "problems": [
            f"seed {e['seed']}: {problem}"
            for e in envelopes
            for problem in e["detail"].get("problems", ())
        ],
        "uncounted": [
            f"seed {e['seed']}: {note}"
            for e in envelopes
            for note in e["detail"].get("uncounted", ())
        ],
        "samples": envelopes[0]["detail"].get("samples", {}),
        "ops_per_s_as_timed": [
            e["detail"]["ops_per_s_as_timed"]
            for e in envelopes if "ops_per_s_as_timed" in e["detail"]
        ],
        "envelopes": [
            {k: v for k, v in e.items() if k not in ("result", "detail")}
            for e in envelopes
        ],
    }


def _print_block(title: str, block: dict[str, Any]) -> None:
    print(f"\n== {title} ==")
    for name, row in block["metrics"].items():
        spread = (
            f"  [{min(row['values']):.6g} .. {max(row['values']):.6g}]"
            if len(row["values"]) > 1 else ""
        )
        print(f"  {name:<44} {row['median']:>14.6g} {row['unit']}{spread}")
    print(
        f"  {'failed_share':<44} {block['failed_share']:>14.6g} share  "
        f"({block['failed']} of {block['attempted']} ops; "
        f"oracles {'PASS' if block['correct'] else 'FAIL'})"
    )
    if block["samples"]:
        print(f"  samples: {block['samples']}")
    for reason in block["invalid"]:
        print(f"  INVALID RUN: {reason}")
    for problem in block["problems"]:
        print(f"  ORACLE: {problem}")
    for note in block["uncounted"]:
        print(f"  REPORTED, NOT COUNTED: {note}")


def cmd_run(spec: Spec, args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(spec.workloads)
    seconds = args.seconds or float(spec.run_seconds)
    payload: dict[str, Any] = {
        "format": FORMAT, "seed": args.seed, "seconds": seconds,
        "runs": args.runs, "workloads": {},
    }
    ok = True
    for workload in workloads:
        plain = summarise(
            [
                run_once(workload, args.seed, seconds, False)
                for _ in range(args.runs)
            ]
        )
        entry = {"end_to_end": plain}
        _print_block(f"{workload} (end to end, {args.runs} run(s))", plain)
        ok &= plain["correct"]
        if args.traced:
            layers = summarise([run_once(workload, args.seed, seconds, True)])
            entry["per_layer"] = layers
            _print_block(f"{workload} (per layer, traced run)", layers)
            ok &= layers["correct"]
        payload["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


def cmd_compare(spec: Spec, args: argparse.Namespace) -> int:
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    breaches = 0
    for workload in spec.workloads:
        old_block = base["workloads"].get(workload, {}).get("end_to_end")
        new_block = new["workloads"].get(workload, {}).get("end_to_end")
        if not old_block or not new_block:
            print(f"{workload}: missing from one side, skipped")
            continue
        print(f"\n== {workload} ==")
        for name, metric in spec.end_to_end.items():
            before = old_block["metrics"][name]["median"]
            after = new_block["metrics"][name]["median"]
            worse = worsening(metric.better, before, after)
            breach = worse > metric.bound
            breaches += breach
            print(
                f"  {name:<16} {before:>14.6g} -> {after:>14.6g} "
                f"{metric.unit:<6} {worse:+8.1%} worse "
                f"(bound {metric.bound:.0%})  "
                f"{'REGRESSED' if breach else 'ok'}"
            )
        # Correctness has no tolerance: any new failure is a breach.
        breach = new_block["failed_share"] > old_block["failed_share"]
        breaches += breach
        print(
            f"  {'failed_share':<16} {old_block['failed_share']:>14.6g} -> "
            f"{new_block['failed_share']:>14.6g} share  (bound 0)  "
            f"{'REGRESSED' if breach else 'ok'}"
        )
        for reason in new_block["invalid"] + old_block["invalid"]:
            print(f"  note, invalid run: {reason}")
    print(f"\n{breaches} breach(es)")
    return 1 if breaches else 0


def cmd_calibrate(spec: Spec, args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(spec.workloads)
    seconds = args.seconds or float(spec.run_seconds)
    wide = 0
    for workload in workloads:
        block = summarise(
            [
                run_once(workload, args.seed + index, seconds, False)
                for index in range(args.runs)
            ]
        )
        print(
            f"\n== {workload}: {args.runs} runs, seeds {args.seed}.."
            f"{args.seed + args.runs - 1} =="
        )
        print(
            f"  {'metric':<16} {'min':>12} {'median':>12} {'max':>12} "
            f"{'unit':<6} {'spread':>7} {'bound':>6}"
        )
        for name, metric in spec.end_to_end.items():
            values = block["metrics"][name]["values"]
            spread = quartile_spread(values)
            flag = ""
            if spread > metric.bound:
                flag = "  WIDER THAN BOUND"
                wide += 1
            elif spread > metric.bound / 3:
                flag = "  (above a third of the bound)"
            print(
                f"  {name:<16} {min(values):>12.6g} {median(values):>12.6g} "
                f"{max(values):>12.6g} {metric.unit:<6} {spread:>7.1%} "
                f"{metric.bound:>6.0%}{flag}"
            )
        raw = block["ops_per_s_as_timed"]
        if raw:
            print(
                f"  ops_per_s before the host-speed correction: "
                f"{min(raw):.6g} .. {median(raw):.6g} .. {max(raw):.6g}, "
                f"spread {quartile_spread(raw):.1%}"
            )
        print(
            f"  failed {block['failed']} of {block['attempted']} ops"
            + "".join(f"\n  INVALID RUN: {r}" for r in block["invalid"])
            + "".join(f"\n  ORACLE: {p}" for p in block["problems"])
            + "".join(
                f"\n  REPORTED, NOT COUNTED: {u}" for u in block["uncounted"]
            )
        )
    return 1 if wide else 0


def cmd_selftest(spec: Spec, args: argparse.Namespace) -> int:
    from benchmarks.perf import proc, selftest

    report = proc.run_worker("selftest", {}, timeout=300.0)
    for name, (sound, doctored) in report.items():
        print(
            f"  {name:<20} failed ops: {sound} on the sound input, "
            f"{doctored} on the doctored one"
        )
    ok = selftest.bites(report)
    print("the oracles bite" if ok else "AN ORACLE DID NOT BITE")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", choices=list(spec.workloads))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--seconds", type=float,
            help=f"run length (default {spec.run_seconds}, the contract's)",
        )

    run = sub.add_parser("run", help="run the workloads, print every metric")
    common(run)
    run.add_argument("--runs", type=int, default=1,
                     help="untraced runs per workload (median reported)")
    run.add_argument("--traced", action="store_true",
                     help="add one traced run per workload (per-layer)")
    run.add_argument("--out", help="write the result set to this JSON file")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="B against A, per metric")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(func=cmd_compare)

    calibrate = sub.add_parser("calibrate", help="run-to-run spread")
    common(calibrate)
    calibrate.add_argument("--runs", type=int, default=5)
    calibrate.set_defaults(func=cmd_calibrate)

    selftest = sub.add_parser(
        "selftest", help="prove a dropped output, a duplicated put and a "
        "violated invariant each count as failed ops",
    )
    selftest.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(spec, args)
