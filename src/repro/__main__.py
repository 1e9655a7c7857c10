"""Command-line interface: ``python -m repro``.

Subcommands:

- ``run``      -- one experiment with chosen protocol/workload/failures,
                  oracle-checked, with an optional timeline dump;
- ``table1``   -- regenerate the paper's Table 1;
- ``figures``  -- verify the Figure 1 / Figure 5 scenarios;
- ``overhead`` -- print the Section 6.9 overhead report for a run;
- ``trace``    -- run a named scenario fully instrumented, write a
                  JSON-lines trace and print the metrics summary;
- ``bench``    -- benchmark a named scenario and emit ``BENCH_obs.json``;
- ``stress``   -- randomized fault-injection sweep: thousands of seeded
                  schedules, every run graded by the invariant oracles,
                  failures shrunk to replayable JSON reproducers;
- ``exec-bench`` -- benchmark the parallel execution engine itself:
                  run one seed block serially and in parallel, verify the
                  results are bit-identical, emit ``BENCH_exec.json``;
- ``wire-bench`` -- wire & storage fast path: delta-clock piggyback cost
                  on stress-mix plus before/after live cluster runs
                  (JSON vs binary frames, per-mutation vs group-commit
                  fsyncs), emitting ``BENCH_wire.json``;
- ``load``     -- open-loop load generator: one live cluster per offered
                  rate, honest p50/p99 latency-vs-offered-load curves,
                  emitting ``BENCH_load.json``;
- ``serve``    -- boot the sharded multi-tenant KV service
                  (``repro.service``): S independent recovery domains,
                  printed client endpoints, per-shard crash schedules;
- ``service-bench`` -- closed-loop user simulator (concurrent sessions,
                  Zipfian keys) over the service while replicas are
                  SIGKILLed: exactly-once audit, per-shard unavailability
                  and stale-read windows, ``BENCH_service.json``.

Examples::

    python -m repro run --protocol damani-garg -n 4 --crash 20:1 --seed 7
    python -m repro run --protocol strom-yemini --crash 20:1 --timeline
    python -m repro table1 --seeds 0 1 2
    python -m repro figures
    python -m repro trace quickstart
    python -m repro bench crash-storm --repeats 5
    python -m repro stress --schedules 500 --seed 0 --jobs 4
    python -m repro stress --replay stress-repro-seed55.json
    python -m repro stress --live --schedules 3
    python -m repro live -n 3 --jobs 9 --no-crash --faults --fault-seed 7
    python -m repro exec-bench --schedules 200 --jobs 4
    python -m repro serve --shards 2 --run-seconds 10
    python -m repro service-bench --shards 2 --sessions 200
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import check_recovery, measure_overhead
from repro.apps import BankApp, PingPongApp, PipelineApp, RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.comparison import run_table1
from repro.harness.conformance import PROTOCOL_REGISTRY
from repro.harness.reporting import render_paper_comparison, render_table1
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.harness.timeline import lane_summary, render_timeline
from repro.protocols import (
    CoordinatedProcess,
    ProtocolConfig,
    StromYeminiProcess,
)
from repro.sim.failures import CrashPlan
from repro.sim.network import DeliveryOrder

#: CLI protocol names resolve through the shared conformance registry.
PROTOCOLS = PROTOCOL_REGISTRY

WORKLOADS = {
    "routing": lambda n: RandomRoutingApp(
        hops=50, seeds=tuple(range(min(2, n))), initial_items=3
    ),
    "bank": lambda n: BankApp(seeds=(0,) if n < 3 else (0, 2)),
    "pipeline": lambda n: PipelineApp(jobs=10),
    "pingpong": lambda n: PingPongApp(rounds=50),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_crashes(specs: list[str]) -> CrashPlan | None:
    """Each spec is ``time:pid`` or ``time:pid:downtime``."""
    if not specs:
        return None
    plan = CrashPlan()
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(f"bad --crash spec {spec!r}; use time:pid[:down]")
        time, pid = float(parts[0]), int(parts[1])
        downtime = float(parts[2]) if len(parts) == 3 else 2.0
        plan.crash(time, pid, downtime)
    return plan


# ---------------------------------------------------------------------------
# Shared argument groups.  Subcommands compose these helpers so the same
# concept always spells the same flag (locked by the --help snapshot in
# tests/test_cli_surface.py); defaults stay per-subcommand where they
# legitimately differ.
# ---------------------------------------------------------------------------
def _add_n(
    parser: argparse.ArgumentParser,
    *,
    default: int | None = 4,
    required: bool = False,
    help: str | None = None,
) -> None:
    if required:
        parser.add_argument("-n", type=int, required=True, help=help)
    else:
        parser.add_argument("-n", type=int, default=default, help=help)


def _add_seed(
    parser: argparse.ArgumentParser,
    *,
    default: int | None = 0,
    help: str | None = None,
) -> None:
    parser.add_argument("--seed", type=int, default=default, help=help)


def _add_out(
    parser: argparse.ArgumentParser,
    default: str | None,
    *,
    help: str | None = None,
) -> None:
    parser.add_argument("--out", default=default, metavar="PATH", help=help)


def _add_workdir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workdir", default=None,
                        help="keep run artifacts here (default: temp dir)")


def _add_cluster_shape(
    parser: argparse.ArgumentParser, *, jobs: int, run_seconds: float
) -> None:
    parser.add_argument("--jobs", type=int, default=jobs)
    parser.add_argument("--run-seconds", type=float, default=run_seconds)


def _add_crash_specs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--crash", action="append", default=[],
                        metavar="TIME:PID[:DOWN]")


def _add_service_cluster(
    parser: argparse.ArgumentParser, *, run_seconds: float = 12.0
) -> None:
    """Topology/failure flags shared by ``serve`` and ``service-bench``."""
    parser.add_argument("--shards", type=_positive_int, default=2)
    parser.add_argument("--nodes-per-shard", type=_positive_int, default=4,
                        help="1 gateway + N-1 replicas per shard")
    parser.add_argument("--run-seconds", type=float, default=run_seconds,
                        help="cap on the run; the bench stops the shards "
                             "as soon as the workload and audit complete")
    parser.add_argument("--crash-at", type=float, default=2.0,
                        help="env-time of each shard's replica SIGKILL")
    parser.add_argument("--downtime", type=float, default=0.75)
    parser.add_argument("--no-crash", action="store_true",
                        help="skip the per-shard SIGKILL")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="draw a seeded network/disk fault plan per "
                             "shard (default: no faults)")
    _add_workdir(parser)


def _service_config(args: argparse.Namespace) -> "object":
    from repro.service import ServiceConfig

    workload = {}
    for name in ("sessions", "ops_per_session", "keys", "put_ratio",
                 "zipf_s", "seed", "request_timeout"):
        if hasattr(args, name):
            workload[name] = getattr(args, name)
    return ServiceConfig(
        shards=args.shards,
        nodes_per_shard=args.nodes_per_shard,
        run_seconds=args.run_seconds,
        crash_replicas=not args.no_crash,
        crash_at=args.crash_at,
        downtime=args.downtime,
        fault_seed=args.fault_seed,
        **workload,
    )


def cmd_run(args: argparse.Namespace) -> int:
    protocol = PROTOCOLS[args.protocol]
    app = WORKLOADS[args.workload](args.n)
    order = (
        DeliveryOrder.FIFO
        if protocol.requires_fifo or args.fifo
        else DeliveryOrder.RANDOM
    )
    spec = ExperimentSpec(
        n=args.n,
        app=app,
        protocol=protocol,
        crashes=_parse_crashes(args.crash),
        seed=args.seed,
        horizon=args.horizon,
        order=order,
        config=ProtocolConfig(
            checkpoint_interval=args.checkpoint_interval,
            flush_interval=args.flush_interval,
        ),
    )
    result = run_experiment(spec)

    print(f"protocol   : {protocol.name}")
    print(f"workload   : {args.workload}  n={args.n}  seed={args.seed}")
    print(f"delivered  : {result.total_delivered}")
    print(f"restarts   : {result.total_restarts}   "
          f"rollbacks: {result.total_rollbacks}")
    print(f"discarded  : {result.total('app_discarded')}   "
          f"postponed: {result.total('app_postponed')}")
    print()
    print(lane_summary(result.trace, args.n))

    if args.timeline:
        print("\n--- timeline ---")
        print(render_timeline(result.trace, limit=args.timeline_limit))

    strict = protocol not in (StromYeminiProcess, CoordinatedProcess)
    verdict = check_recovery(
        result,
        expect_minimal_rollback=strict,
        expect_maximum_recovery=strict,
        expect_single_rollback_per_failure=strict,
    )
    print(f"\noracle: {'OK' if verdict.ok else 'VIOLATIONS'}")
    for violation in verdict.violations:
        print(f"  - {violation}")
    return 0 if verdict.ok else 1


def cmd_table1(args: argparse.Namespace) -> int:
    rows = run_table1(n=args.n, seeds=tuple(args.seeds), jobs=args.jobs)
    print(render_table1(rows))
    print()
    print(render_paper_comparison(rows))
    return 0 if all(row.safety_ok for row in rows) else 1


def cmd_figures(_args: argparse.Namespace) -> int:
    from repro.harness.scenarios import figure1, figure5

    result1 = figure1()
    ok1 = (
        result1.protocols[1].clock.pairs() == result1.notes["p1_after_m0"]
        and result1.protocols[2].clock.pairs() == result1.notes["r20"]
        and check_recovery(result1).ok
    )
    print(f"figure 1: {'verified' if ok1 else 'MISMATCH'}")

    result5 = figure5()
    from repro.sim.trace import EventKind

    ok5 = (
        len(result5.trace.events(EventKind.POSTPONE, pid=0)) == 1
        and len(result5.trace.events(EventKind.DISCARD, pid=2)) == 1
        and result5.protocols[0].stats.rollbacks == 1
        and check_recovery(result5).ok
    )
    print(f"figure 5: {'verified' if ok5 else 'MISMATCH'}")
    return 0 if ok1 and ok5 else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a named scenario instrumented; dump JSONL + metrics summary."""
    from time import perf_counter

    from repro.harness.reporting import render_metrics_report
    from repro.obs import MetricsReport, Tracer, build_scenario, write_jsonl

    spec = build_scenario(args.scenario, args.seed)
    tracer = Tracer()
    spec.tracer = tracer
    start = perf_counter()
    result = run_experiment(spec)
    wall = perf_counter() - start

    out_path = args.out or f"trace_{args.scenario}.jsonl"
    lines = write_jsonl(
        tracer,
        out_path,
        meta={
            "scenario": args.scenario,
            "n": spec.n,
            "seed": spec.seed,
            "horizon": spec.horizon,
            "trace_signature": result.trace.signature(),
        },
    )
    report = MetricsReport.from_run(result, tracer, wall_time_s=wall)
    print(f"scenario : {args.scenario}")
    print(f"trace    : {out_path} ({lines} lines)")
    print()
    print(render_metrics_report(report))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark a named scenario; emit the BENCH_obs.json trajectory."""
    from repro.obs import (
        run_bench,
        run_bench_matrix,
        write_bench_json,
        write_bench_matrix_json,
    )

    if args.matrix:
        matrix = run_bench_matrix(
            seed=args.seed, repeats=args.repeats, jobs=args.jobs
        )
        out = args.out if args.out != "BENCH_obs.json" else "BENCH_obs_matrix.json"
        path = write_bench_matrix_json(matrix, out)
        print(matrix.summary())
        print(f"written: {path}")
        return 0

    bench = run_bench(
        args.scenario, seed=args.seed, repeats=args.repeats, jobs=args.jobs
    )
    path = write_bench_json(bench, args.out)
    print(f"scenario              : {bench.scenario}  "
          f"(n={bench.n}, seed={bench.seed}, repeats={bench.repeats})")
    print(f"wall time (best)      : {bench.wall_time_s:.4f} s")
    print(f"events/sec            : {bench.events_per_sec:,.0f}")
    print(f"delivered             : {bench.delivered}")
    print(f"peak history records  : {bench.peak_history_records}")
    print(f"piggyback bytes total : {bench.piggyback_bytes_total:.0f}")
    print(f"piggyback bytes/msg   : {bench.piggyback_bytes_per_message:.1f}")
    print(f"tokens broadcast      : {bench.tokens_broadcast:.0f}")
    print(f"rollbacks / restarts  : {bench.rollbacks} / {bench.restarts}")
    print(f"written               : {path}")
    return 0


def cmd_stress(args: argparse.Namespace) -> int:
    """Randomized fault-injection sweep (or replay of one reproducer)."""
    import json
    from pathlib import Path

    from repro.stress import PROFILES, load_reproducer, run_case, sweep

    profile = PROFILES[args.profile]

    if args.replay is not None:
        # Reproducers are self-describing: a "live": true marker routes
        # the replay to the real TCP cluster, everything else to the
        # simulator.  Either way the shrunk case is what replays.
        payload = json.loads(Path(args.replay).read_text())
        if payload.get("live"):
            from repro.stress import load_live_reproducer, run_live_case

            case, payload = load_live_reproducer(Path(args.replay))
            print(f"replaying {args.replay} (live): {case.describe()}")
            result = run_live_case(case)
        else:
            case, payload = load_reproducer(Path(args.replay))
            print(f"replaying {args.replay}: {case.describe()}")
            result = run_case(
                case, theorem_max_states=profile.theorem_max_states
            )
        if result.failed:
            print(f"still failing: {result.headline()}")
            for violation in result.violations:
                print(f"  - {violation}")
            return 1
        recorded = payload.get("violations") or [payload.get("error")]
        print(f"now passing (previously: {recorded[0]})")
        return 0

    if args.live:
        return _cmd_stress_live(args)

    out_dir = Path(args.out_dir) if args.out_dir else None
    if args.fail_fast and args.jobs > 1:
        raise SystemExit("--fail-fast requires --jobs 1")

    cache = None
    if args.cache_dir is not None:
        from repro.exec import ResultCache

        cache = ResultCache(args.cache_dir)

    def progress(index: int, result) -> None:
        if result.failed:
            print(f"  seed {result.case.seed}: {result.headline()}")
        elif (index + 1) % 100 == 0:
            print(f"  ... {index + 1}/{args.schedules} schedules")

    report = sweep(
        args.schedules,
        base_seed=args.seed,
        profile=profile,
        shrink=not args.no_shrink,
        fail_fast=args.fail_fast,
        out_dir=out_dir,
        run=run_case,
        progress=progress if not args.quiet else None,
        jobs=args.jobs,
        cache=cache,
    )
    print(report.summary())
    for path in report.reproducers:
        print(f"  wrote {path}")
    return 0 if report.ok else 1


def _cmd_stress_live(args: argparse.Namespace) -> int:
    """``stress --live``: seeded fault schedules on real TCP clusters."""
    from pathlib import Path

    from repro.stress import live_sweep

    if args.jobs > 1:
        raise SystemExit("--live runs serially; drop --jobs")
    if args.cache_dir is not None:
        raise SystemExit("--live does not support --cache-dir")

    def progress(index: int, result) -> None:
        if result.failed:
            print(f"  seed {result.case.seed}: {result.headline()}")
        else:
            print(f"  seed {result.case.seed}: ok "
                  f"({result.case.describe()})")

    report = live_sweep(
        args.schedules,
        base_seed=args.seed,
        shrink=not args.no_shrink,
        fail_fast=args.fail_fast,
        out_dir=Path(args.out_dir) if args.out_dir else None,
        progress=progress if not args.quiet else None,
    )
    print(report.summary())
    for path in report.reproducers:
        print(f"  wrote {path}")
    return 0 if report.ok else 1


def cmd_exec_bench(args: argparse.Namespace) -> int:
    """Serial-vs-parallel engine benchmark; emit BENCH_exec.json."""
    from repro.exec import run_exec_bench, write_exec_bench_json

    bench = run_exec_bench(
        args.schedules,
        jobs=args.jobs,
        profile=args.profile,
        base_seed=args.seed,
        budget_slots=args.budget_slots,
    )
    path = write_exec_bench_json(bench, args.out)
    print(bench.summary())
    print(f"written: {path}")
    if not bench.identical:
        return 1
    if args.min_speedup is not None and bench.speedup < args.min_speedup:
        print(
            f"FAIL: speedup {bench.speedup:.2f}x is below the "
            f"--min-speedup floor {args.min_speedup:.2f}x"
        )
        return 1
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        n=args.n,
        app=WORKLOADS["routing"](args.n),
        protocol=DamaniGargProcess,
        crashes=_parse_crashes(args.crash),
        seed=args.seed,
        horizon=args.horizon,
    )
    result = run_experiment(spec)
    report = measure_overhead(result)
    print(f"n                     : {report.n}")
    print(f"failures              : {report.failures}")
    print(f"app messages          : {report.app_messages}")
    print(f"control messages      : {report.control_messages}")
    print(f"piggyback entries/msg : "
          f"{report.piggyback_entries_per_message:.1f}")
    print(f"piggyback bits/msg    : {report.piggyback_bits_per_message:.0f}")
    print(f"history records (max) : {report.history_records_max} "
          f"(bound {report.history_bound})")
    print(f"checkpoints taken     : {report.checkpoints_taken}")
    print(f"log flushes           : {report.log_flushes}")
    print(f"rollbacks / restarts  : {report.rollbacks} / {report.restarts}")
    return 0


def cmd_live(args: argparse.Namespace) -> int:
    """Run a real asyncio/TCP cluster with a SIGKILL crash; grade it."""
    import json
    import tempfile

    from repro.live import (
        LiveClusterSpec,
        LiveCrashPlan,
        LiveFaultPlan,
        check_live_run,
        recovery_timeline,
        run_cluster,
    )

    crashes = []
    if not args.no_crash:
        crashes.append(
            LiveCrashPlan(
                pid=args.crash_pid,
                at=args.crash_at,
                downtime=args.downtime,
            )
        )
    faults = LiveFaultPlan()
    if args.faults is not None:
        if args.faults == "@seeded":
            from repro.stress import seeded_fault_plan

            faults = seeded_fault_plan(
                args.fault_seed, n=args.n, run_seconds=args.run_seconds
            )
        else:
            with open(args.faults, "r", encoding="utf-8") as fh:
                faults = LiveFaultPlan.from_dict(json.load(fh))
        print(f"fault schedule: {faults.describe()}")
    spec = LiveClusterSpec(
        n=args.n,
        jobs=args.jobs,
        run_seconds=args.run_seconds,
        crashes=crashes,
        faults=faults,
    )
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-live-")
    print(
        f"starting {spec.n}-process live cluster "
        f"({spec.jobs} jobs, {len(crashes)} crash(es)) in {workdir}"
    )
    result = run_cluster(spec, workdir)
    for pid, kill_time in result.kills:
        print(f"  SIGKILL -> p{pid} at t={kill_time:.3f}s")
    verdict = check_live_run(result.trace, n=spec.n, jobs=spec.jobs)
    print(f"trace events  : {len(result.trace)}")
    print(f"deliveries    : {result.total_delivered}")
    print(f"wall time     : {result.wall_seconds:.2f}s")
    if faults.event_count:
        for pid in sorted(result.done):
            counters = result.done[pid].get("faults", {})
            fired = {k: v for k, v in counters.items() if v}
            if fired:
                print(f"  p{pid} fault injections: {fired}")
    print(verdict.summary())
    for timeline in recovery_timeline(result.trace):
        print(f"  recovery: {timeline.summary()}")
    return 0 if verdict.ok else 1


def cmd_rollback(args: argparse.Namespace) -> int:
    """Operator rollback of a stopped live cluster's stable storage."""
    from repro.live.rollback import RollbackError, describe, rollback_cluster

    try:
        outcome = rollback_cluster(
            args.data_dir,
            args.n,
            at=args.at,
            earliest=args.earliest,
            reason=args.reason,
            witness=args.witness,
            dry_run=args.dry_run,
            pids=args.pids,
        )
    except RollbackError as exc:
        print(f"rollback refused: {exc}")
        return 1
    for pid in sorted(outcome["reports"]):
        print(describe(outcome["reports"][pid]))
    if args.dry_run:
        print("dry run: no image was modified")
    else:
        print(f"audit: {outcome['audit_path']}")
    return 0


def cmd_live_bench(args: argparse.Namespace) -> int:
    """Live throughput/latency benchmark; emit BENCH_live.json."""
    import tempfile

    from repro.live.bench import write_live_bench

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-live-bench-")
    payload = write_live_bench(
        args.out,
        workdir,
        n=args.n,
        jobs=args.jobs,
        run_seconds=args.run_seconds,
    )
    for name, scenario in payload["scenarios"].items():
        print(f"{name}: {scenario['verdict']}")
        print(
            f"  {scenario['app_deliveries']} deliveries in "
            f"{scenario['wall_seconds']}s "
            f"({scenario['deliveries_per_second']}/s)"
        )
    print(f"written: {args.out}")
    return 0 if all(
        s["ok"] for s in payload["scenarios"].values()
    ) else 1


def cmd_wire_bench(args: argparse.Namespace) -> int:
    """Wire/storage fast-path benchmark; emit BENCH_wire.json."""
    import tempfile

    from repro.live.wirebench import write_wire_bench

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-wire-bench-")
    payload = write_wire_bench(
        args.out,
        workdir,
        n=args.n,
        jobs=args.jobs,
        run_seconds=args.run_seconds,
        seed=args.seed,
        skip_live=args.skip_live,
    )
    pig = payload["piggyback"]
    print(
        f"piggyback (stress-mix): {pig['full_json_bytes_per_msg']} B/msg "
        f"full JSON vs {pig['delta_bytes_per_msg']} B/msg delta "
        f"({pig['reduction_factor']}x smaller, "
        f"{pig['full_clock_fallbacks']} full-clock fallbacks)"
    )
    ok = True
    if pig["reduction_factor"] is None or pig["reduction_factor"] < (
        args.min_piggyback_reduction or 0.0
    ):
        print(
            f"FAIL: piggyback reduction below the "
            f"--min-piggyback-reduction floor "
            f"{args.min_piggyback_reduction}"
        )
        ok = False
    for name, pair in payload.get("live", {}).items():
        before, after = pair["before"], pair["after"]
        print(f"{name}:")
        for label, rep in (("before", before), ("after", after)):
            print(
                f"  {label:6s} [{rep['wire_format']}, "
                f"window={rep['storage_flush_window']}]: "
                f"{rep['app_deliveries']} deliveries "
                f"({rep['deliveries_per_second']}/s), "
                f"{rep['fsyncs_per_delivery']} fsyncs/delivery, "
                f"{rep['wire_bytes_per_delivery']} wire B/delivery -- "
                f"{'ok' if rep['ok'] else 'ORACLE FAIL'}"
            )
            ok = ok and rep["ok"]
    print(f"written: {args.out}")
    return 0 if ok else 1


def cmd_load(args: argparse.Namespace) -> int:
    """Open-loop load sweep; emit BENCH_load.json."""
    import tempfile

    from repro.live.load import (
        append_trend_row,
        check_load_payload,
        check_trend,
        write_load_bench,
    )

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-load-")
    payload = write_load_bench(
        args.out,
        workdir,
        n=args.n,
        rates=tuple(args.rates),
        duration=args.duration,
        start_at=args.start_at,
    )
    for name, s in payload["scenarios"].items():
        lat = s["job_latency_s"]
        print(f"{name}: {s['verdict']}")
        print(
            f"  offered {s['offered_rate']:.0f}/s -> "
            f"{s['app_deliveries']} deliveries in "
            f"{s['active_seconds']}s active "
            f"({s['deliveries_per_second']}/s; "
            f"{s['deliveries_per_second_wall']}/s wall)"
        )
        print(
            f"  latency p50={lat['p50']}s p99={lat['p99']}s "
            f"min={lat['min']}s max={lat['max']}s"
        )
    print(
        f"max sustained rate        : {payload['max_sustained_rate']}"
    )
    print(
        f"peak deliveries/sec       : "
        f"{payload['peak_deliveries_per_second']}"
    )
    print(f"written: {args.out}")

    problems = check_load_payload(
        payload, min_deliveries_per_sec=args.min_deliveries_per_sec
    )
    if args.trend_file:
        if args.check_trend:
            problems.extend(check_trend(args.trend_file, payload))
        append_trend_row(args.trend_file, payload)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def cmd_scale_bench(args: argparse.Namespace) -> int:
    """Piggyback scale sweep over live clusters; emit BENCH_scale.json."""
    import tempfile

    from repro.live.scalebench import (
        append_trend_row,
        check_scale_payload,
        check_trend,
        write_scale_bench,
    )

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-scale-")
    payload = write_scale_bench(
        args.out,
        workdir,
        ns=tuple(args.ns),
        jobs=args.jobs,
        runner_jobs=args.runner_jobs,
        budget_slots=args.budget_slots,
    )
    for name, s in payload["scenarios"].items():
        print(f"{name}: {s.get('verdict')}")
        if not s.get("ok"):
            continue
        print(
            f"  piggyback {s['full_json_bytes_per_msg']} B/msg full-JSON "
            f"vs {s['delta_bytes_per_msg']} B/msg delta "
            f"({s['clocks_sent']} clocks)"
        )
        print(
            f"  {s['deliveries']} deliveries "
            f"({s['deliveries_per_second']}/s active; "
            f"{s['fsyncs_per_delivery']} fsyncs/delivery; "
            f"{s['wall_seconds']}s wall)"
        )
    growth = payload["growth"]
    print(
        f"growth exponent           : "
        f"full-JSON {growth['full_json_exponent']}, "
        f"delta {growth['delta_exponent']} "
        f"(gate <= {args.max_exponent})"
    )
    print(f"written: {args.out}")

    problems = check_scale_payload(payload, max_exponent=args.max_exponent)
    if args.trend_file:
        if args.check_trend:
            problems.extend(check_trend(args.trend_file, payload))
        append_trend_row(args.trend_file, payload)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the sharded KV service and run it for --run-seconds."""
    import tempfile

    from repro.service import ShardManager
    from repro.service.bench import check_shard_trace

    config = _service_config(args)
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-serve-")
    manager = ShardManager(config, workdir)
    print(
        f"booting {config.shards} shard(s) x {config.nodes_per_shard} "
        f"node(s) in {workdir}"
    )
    manager.start()
    manager.wait_ready()
    print(f"routing : v{manager.routing.version}, "
          f"{manager.routing.shards} shard(s)")
    for ep in manager.endpoints():
        print(
            f"  shard {ep.shard}: ingress {ep.host}:{ep.ingress_port}  "
            f"replies {list(ep.reply_ports)}"
        )
    print(f"serving for {config.run_seconds}s ...")
    results = manager.join()
    ok = True
    for shard in sorted(results):
        result = results[shard]
        for pid, kill_time in result.kills:
            print(f"  shard {shard}: SIGKILL -> p{pid} "
                  f"at t={kill_time:.3f}s")
        oracle = check_shard_trace(result.trace)
        verdict = "ok" if oracle["ok"] else "ORACLE FAIL"
        print(
            f"  shard {shard}: {verdict} "
            f"({oracle['crashes']} crash(es), "
            f"{oracle['restarts']} restart(s), "
            f"{oracle['tokens']} token(s))"
        )
        for failure in oracle["failures"]:
            print(f"    - {failure}")
        ok = ok and oracle["ok"]
    return 0 if ok else 1


def cmd_service_bench(args: argparse.Namespace) -> int:
    """Closed-loop user simulator over the service; BENCH_service.json."""
    import tempfile

    from repro.service import check_service_payload, write_service_bench

    config = _service_config(args)
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-service-")
    payload = write_service_bench(args.out, workdir, config)
    exactly_once = payload["exactly_once"]
    print(
        f"ops: {payload['ops_total'] - payload['ops_failed']}"
        f"/{payload['ops_total']} completed, "
        f"{payload['puts_acked']} put(s) acked"
    )
    print(
        f"exactly-once: "
        f"{'VERIFIED' if exactly_once['verified'] else 'FAILED'} "
        f"({exactly_once['audited_keys']} key(s) audited, "
        f"{len(exactly_once['mismatches'])} mismatch(es), "
        f"{exactly_once['monotonicity_violations']} monotonicity "
        f"violation(s))"
    )
    for shard, report in sorted(payload["per_shard"].items()):
        unavailable = report["unavailability"]
        stale = report["stale_reads"]
        latency = report["latency_s"]
        oracle = report.get("oracle", {})
        print(
            f"shard {shard}: {report['ops']} ops "
            f"(p50={latency['p50']}s p99={latency['p99']}s), "
            f"{report['retries']} retries -- "
            f"unavailable {unavailable['total_s']}s over "
            f"{unavailable['windows']} window(s), "
            f"stale {stale['total_s']}s over {stale['events']} event(s), "
            f"oracle {'ok' if oracle.get('ok') else 'FAIL'}"
        )
    print(f"written: {args.out}")
    problems = check_service_payload(payload)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Damani-Garg optimistic recovery reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one oracle-checked experiment")
    run_parser.add_argument("--protocol", choices=sorted(PROTOCOLS),
                            default="damani-garg")
    run_parser.add_argument("--workload", choices=sorted(WORKLOADS),
                            default="routing")
    _add_n(run_parser)
    _add_seed(run_parser)
    run_parser.add_argument("--horizon", type=float, default=100.0)
    _add_crash_specs(run_parser)
    run_parser.add_argument("--fifo", action="store_true",
                            help="force FIFO channels")
    run_parser.add_argument("--checkpoint-interval", type=float, default=8.0)
    run_parser.add_argument("--flush-interval", type=float, default=2.5)
    run_parser.add_argument("--timeline", action="store_true")
    run_parser.add_argument("--timeline-limit", type=int, default=120)
    run_parser.set_defaults(func=cmd_run)

    t1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    _add_n(t1)
    t1.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    t1.add_argument("--jobs", type=_positive_int, default=1,
                    help="measure protocol rows in parallel")
    t1.set_defaults(func=cmd_table1)

    figures = sub.add_parser("figures", help="verify Figures 1 and 5")
    figures.set_defaults(func=cmd_figures)

    from repro.obs.scenarios import SCENARIOS

    trace = sub.add_parser(
        "trace",
        help="instrumented run: JSON-lines trace + metrics summary",
    )
    trace.add_argument("scenario", choices=sorted(SCENARIOS))
    _add_seed(trace, default=None,
              help="override the scenario's default seed")
    _add_out(trace, None,
             help="trace output path (default trace_<scenario>.jsonl)")
    trace.set_defaults(func=cmd_trace)

    bench = sub.add_parser(
        "bench",
        help="benchmark a scenario and emit BENCH_obs.json",
    )
    bench.add_argument("scenario", nargs="?", default="quickstart",
                       choices=sorted(SCENARIOS))
    _add_seed(bench, default=None)
    bench.add_argument("--repeats", type=_positive_int, default=3)
    _add_out(bench, "BENCH_obs.json")
    bench.add_argument("--jobs", type=_positive_int, default=1,
                       help="run repeats (and matrix cells) in parallel")
    bench.add_argument("--matrix", action="store_true",
                       help="benchmark every scenario into one merged report")
    bench.set_defaults(func=cmd_bench)

    from repro.stress.profiles import PROFILES as STRESS_PROFILES

    stress = sub.add_parser(
        "stress",
        help="randomized fault-injection sweep with invariant oracles",
    )
    stress.add_argument("--schedules", type=_positive_int, default=500,
                        help="number of generated schedules (default 500)")
    _add_seed(stress, help="base seed; schedule i uses seed+i")
    stress.add_argument("--profile", choices=sorted(STRESS_PROFILES),
                        default="default")
    stress.add_argument("--out-dir", default=None, metavar="DIR",
                        help="directory for JSON reproducers of failures")
    stress.add_argument("--no-shrink", action="store_true",
                        help="skip minimising failing cases")
    stress.add_argument("--fail-fast", action="store_true",
                        help="stop at the first failing schedule")
    stress.add_argument("--quiet", action="store_true",
                        help="no per-schedule progress output")
    stress.add_argument("--replay", default=None, metavar="JSON",
                        help="replay one reproducer file instead of sweeping")
    stress.add_argument("--jobs", type=_positive_int, default=1,
                        help="run schedules across worker processes")
    stress.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk result cache for schedule outcomes")
    stress.add_argument("--live", action="store_true",
                        help="sweep seeded fault schedules on real TCP "
                             "clusters (partitions, gray links, disk "
                             "faults, corrupt frames) instead of the "
                             "simulator")
    stress.set_defaults(func=cmd_stress)

    exec_bench = sub.add_parser(
        "exec-bench",
        help="serial-vs-parallel engine benchmark; emit BENCH_exec.json",
    )
    exec_bench.add_argument("--schedules", type=_positive_int, default=200)
    exec_bench.add_argument("--jobs", type=_positive_int, default=4)
    exec_bench.add_argument("--profile", choices=sorted(STRESS_PROFILES),
                            default="quick")
    _add_seed(exec_bench)
    _add_out(exec_bench, "BENCH_exec.json")
    exec_bench.add_argument("--min-speedup", type=float, default=None,
                            help="fail unless speedup reaches this floor")
    exec_bench.add_argument("--budget-slots", type=_positive_int,
                            default=None,
                            help="run the parallel leg under a "
                                 "ProcessBudget of this many slots "
                                 "(default: unlimited admission)")
    exec_bench.set_defaults(func=cmd_exec_bench)

    overhead = sub.add_parser("overhead",
                              help="Section 6.9 overhead report")
    _add_n(overhead)
    _add_seed(overhead)
    overhead.add_argument("--horizon", type=float, default=100.0)
    _add_crash_specs(overhead)
    overhead.set_defaults(func=cmd_overhead)

    live = sub.add_parser(
        "live",
        help="run a real asyncio/TCP cluster with SIGKILL crashes",
    )
    _add_n(live)
    _add_cluster_shape(live, jobs=32, run_seconds=6.0)
    live.add_argument("--crash-pid", type=int, default=1)
    live.add_argument("--crash-at", type=float, default=0.25)
    live.add_argument("--downtime", type=float, default=1.0)
    live.add_argument("--no-crash", action="store_true")
    live.add_argument("--faults", nargs="?", const="@seeded", default=None,
                      metavar="JSON",
                      help="inject a fault schedule: a LiveFaultPlan JSON "
                           "file, or (with no value) a seeded schedule "
                           "drawn from --fault-seed")
    live.add_argument("--fault-seed", type=int, default=0,
                      help="seed for the generated fault schedule")
    _add_workdir(live)
    live.set_defaults(func=cmd_live)

    rollback = sub.add_parser(
        "rollback",
        help="operator rollback of a stopped cluster to a checkpoint "
             "frontier (orphans preserved, witnessed audit record)",
    )
    rollback.add_argument("--data-dir", required=True,
                          help="the cluster's stable-storage directory")
    _add_n(rollback, required=True,
           help="cluster size (stable_p0..p{n-1})")
    frontier = rollback.add_mutually_exclusive_group(required=True)
    frontier.add_argument("--at", type=float, default=None,
                          help="anchor: latest checkpoint at or before "
                               "this env-time")
    frontier.add_argument("--earliest", action="store_true",
                          help="anchor: the earliest retained checkpoint")
    rollback.add_argument("--reason", required=True,
                          help="why (recorded in the audit trail)")
    rollback.add_argument("--witness", required=True,
                          help="who approved (recorded in the audit trail)")
    rollback.add_argument("--dry-run", action="store_true",
                          help="report the rewind without touching images")
    rollback.add_argument("--pids", type=int, nargs="+", default=None,
                          help="only these nodes (default: all)")
    rollback.set_defaults(func=cmd_rollback)

    live_bench = sub.add_parser(
        "live-bench",
        help="live throughput/latency benchmark (BENCH_live.json)",
    )
    _add_n(live_bench)
    _add_cluster_shape(live_bench, jobs=64, run_seconds=6.0)
    _add_out(live_bench, "BENCH_live.json")
    _add_workdir(live_bench)
    live_bench.set_defaults(func=cmd_live_bench)

    wire_bench = sub.add_parser(
        "wire-bench",
        help="wire/storage fast-path benchmark (BENCH_wire.json)",
    )
    _add_n(wire_bench)
    _add_cluster_shape(wire_bench, jobs=64, run_seconds=6.0)
    _add_seed(wire_bench, default=None,
              help="stress-mix seed for the piggyback section")
    wire_bench.add_argument("--skip-live", action="store_true",
                            help="piggyback section only (no TCP clusters)")
    wire_bench.add_argument("--min-piggyback-reduction", type=float,
                            default=None, metavar="FACTOR",
                            help="fail unless delta clocks shrink piggyback "
                                 "bytes/msg by at least this factor")
    _add_out(wire_bench, "BENCH_wire.json")
    _add_workdir(wire_bench)
    wire_bench.set_defaults(func=cmd_wire_bench)

    load = sub.add_parser(
        "load",
        help="open-loop load sweep over live clusters (BENCH_load.json)",
    )
    _add_n(load)
    load.add_argument("--rates", type=float, nargs="+",
                      default=[250.0, 500.0, 1000.0, 2000.0],
                      help="offered job rates to sweep (jobs/sec)")
    load.add_argument("--duration", type=float, default=4.0,
                      help="seconds of offered load per scenario")
    load.add_argument("--start-at", type=float, default=0.25,
                      help="env-time of the first injection")
    _add_out(load, "BENCH_load.json")
    _add_workdir(load)
    load.add_argument("--min-deliveries-per-sec", type=float, default=0.0,
                      help="fail unless the sweep's best scenario reaches "
                           "this active-window throughput")
    load.add_argument("--trend-file", default=None, metavar="JSONL",
                      help="append a one-line trend row after the sweep")
    load.add_argument("--check-trend", action="store_true",
                      help="fail if peak throughput collapses vs the "
                           "trend file's best recorded row")
    load.set_defaults(func=cmd_load)

    scale = sub.add_parser(
        "scale-bench",
        help="piggyback scale sweep n=4..64 over live clusters "
             "(BENCH_scale.json)",
    )
    scale.add_argument("--ns", type=_positive_int, nargs="+",
                       default=[4, 8, 16, 32, 64],
                       help="cluster sizes to sweep")
    scale.add_argument("--jobs", type=_positive_int, default=12,
                       help="pipeline jobs per scenario (fixed across n)")
    scale.add_argument("--runner-jobs", type=_positive_int, default=2,
                       help="exec-engine workers driving the scenarios")
    scale.add_argument("--budget-slots", type=_positive_int, default=None,
                       help="ProcessBudget slots; each scenario weighs "
                            "n+1 (default: one slot per CPU)")
    scale.add_argument("--max-exponent", type=float, default=1.3,
                       help="fail if a fitted bytes/msg growth exponent "
                            "exceeds this (the O(n) gate)")
    _add_out(scale, "BENCH_scale.json")
    _add_workdir(scale)
    scale.add_argument("--trend-file", default=None, metavar="JSONL",
                       help="append a one-line trend row after the sweep")
    scale.add_argument("--check-trend", action="store_true",
                       help="fail if delta piggyback regresses vs the "
                            "trend file's best recorded rows")
    scale.set_defaults(func=cmd_scale_bench)

    serve = sub.add_parser(
        "serve",
        help="boot the sharded KV service (repro.service) and run it",
    )
    _add_service_cluster(serve)
    serve.set_defaults(func=cmd_serve)

    service_bench = sub.add_parser(
        "service-bench",
        help="closed-loop user simulator over the sharded service "
             "(BENCH_service.json)",
    )
    _add_service_cluster(service_bench, run_seconds=150.0)
    service_bench.add_argument("--sessions", type=_positive_int, default=200,
                               help="concurrent closed-loop user sessions")
    service_bench.add_argument("--ops-per-session", type=_positive_int,
                               default=20)
    service_bench.add_argument("--keys", type=_positive_int, default=64)
    service_bench.add_argument("--put-ratio", type=float, default=0.6)
    service_bench.add_argument("--zipf-s", type=float, default=1.1,
                               help="Zipf skew of the key popularity")
    _add_seed(service_bench, help="workload seed (session op streams)")
    service_bench.add_argument("--request-timeout", type=float, default=0.4,
                               help="per-attempt reply timeout before a "
                                    "same-op-id retry")
    _add_out(service_bench, "BENCH_service.json")
    service_bench.set_defaults(func=cmd_service_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
