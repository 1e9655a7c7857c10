"""Command-line interface: ``python -m repro``.

Subcommands:

- ``run``      -- one experiment with chosen protocol/workload/failures,
                  oracle-checked, with an optional timeline dump;
- ``table1``   -- regenerate the paper's Table 1;
- ``figures``  -- verify the Figure 1 / Figure 5 scenarios;
- ``overhead`` -- print the Section 6.9 overhead report for a run;
- ``trace``    -- run a named scenario fully instrumented, write a
                  JSON-lines trace and print the metrics summary;
- ``stress``   -- randomized fault-injection sweep: thousands of seeded
                  schedules, every run graded by the invariant oracles,
                  failures shrunk to replayable JSON reproducers;
- ``live``     -- run a real asyncio/TCP cluster with SIGKILL crashes
                  and injected faults, graded from its merged trace;
- ``rollback`` -- operator rollback of a stopped live cluster's storage;
- ``serve``    -- boot the sharded multi-tenant KV service
                  (``repro.service``): S independent recovery domains,
                  printed client endpoints, per-shard crash schedules.

Measurement lives outside the package: ``benchmarks/perf`` (declared in
``BENCHMARK.json``) and ``benchmarks/pairs.py``.

Examples::

    python -m repro run --protocol damani-garg -n 4 --crash 20:1 --seed 7
    python -m repro run --protocol strom-yemini --crash 20:1 --timeline
    python -m repro table1 --seeds 0 1 2
    python -m repro figures
    python -m repro trace quickstart
    python -m repro stress --schedules 500 --seed 0 --jobs 4
    python -m repro stress --replay stress-repro-seed55.json
    python -m repro stress --live --schedules 3
    python -m repro live -n 3 --jobs 9 --no-crash --faults --fault-seed 7
    python -m repro serve --shards 2 --run-seconds 10
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


def _add_workdir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workdir", default=None,
                        help="keep run artifacts here (default: temp dir)")


def _add_crash_specs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--crash", action="append", default=[],
                        metavar="TIME:PID[:DOWN]")


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
    from repro.runtime.trace import EventKind

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


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the sharded KV service and run it for --run-seconds."""
    import tempfile

    from repro.service import ServiceConfig, ShardManager
    from repro.service.bench import check_shard_trace

    config = ServiceConfig(
        shards=args.shards,
        nodes_per_shard=args.nodes_per_shard,
        run_seconds=args.run_seconds,
        crash_replicas=not args.no_crash,
        crash_at=args.crash_at,
        downtime=args.downtime,
        fault_seed=args.fault_seed,
    )
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
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="trace output path "
                            "(default trace_<scenario>.jsonl)")
    trace.set_defaults(func=cmd_trace)

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
    live.add_argument("--jobs", type=int, default=32)
    live.add_argument("--run-seconds", type=float, default=6.0)
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

    serve = sub.add_parser(
        "serve",
        help="boot the sharded KV service (repro.service) and run it",
    )
    serve.add_argument("--shards", type=_positive_int, default=2)
    serve.add_argument("--nodes-per-shard", type=_positive_int, default=4,
                       help="1 gateway + N-1 replicas per shard")
    serve.add_argument("--run-seconds", type=float, default=12.0)
    serve.add_argument("--crash-at", type=float, default=2.0,
                       help="env-time of each shard's replica SIGKILL")
    serve.add_argument("--downtime", type=float, default=0.75)
    serve.add_argument("--no-crash", action="store_true",
                       help="skip the per-shard SIGKILL")
    serve.add_argument("--fault-seed", type=int, default=None,
                       help="draw a seeded network/disk fault plan per "
                            "shard (default: no faults)")
    _add_workdir(serve)
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
