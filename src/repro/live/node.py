"""One live cluster member: ``python -m repro.live.node --config FILE``.

With ``--standby`` (passed only by the supervisor, for the replacement of
a process it has just seen die) the node finishes its imports and then
blocks on stdin, holding no storage file, no trace file and no port,
until the supervisor closes the pipe at the end of the downtime; from
there on it is an ordinary start.

The node builds the full stack -- file-backed storage, mesh transport,
:class:`~repro.live.env.LiveEnv`, the Damani-Garg protocol -- and
runs until the cluster-wide deadline.  On its first boot it calls the
protocol's ``on_start``; after a crash (the supervisor SIGKILLs the
process and spawns a fresh one over the same storage directory) the new
incarnation detects the prior boot in stable storage and calls
``on_restart`` instead, which is all the recovery the paper's protocol
needs: restore, replay, broadcast the token, move on.

Startup is a two-phase barrier.  The node makes its durable boot record
and binds its server port first, and only then waits for the supervisor
to publish the cluster epoch (``epoch_path`` appears once every port in
the mesh is accepting).  That ordering guarantees a SIGKILL delivered at
any env-time ``t >= 0`` hits a process whose boot count is already on
stable storage -- so the next incarnation always knows it is a restart.
Without the barrier, a kill landing during interpreter startup leaves no
trace on disk and the respawn would wrongly boot fresh.

Config file (JSON)::

    {
      "pid": 0, "n": 4,
      "host": "127.0.0.1", "ports": [43001, 43002, 43003, 43004],
      "epoch_path": ".../epoch.json",   # supervisor publishes {"epoch": ...}
      "run_until": 6.0,             # env-time deadline for new work
      "linger": 1.5,                # grace period for in-flight traffic
      "app": {"kind": "pipeline", "jobs": 32},
      "config": {"checkpoint_interval": 0.5, ...},
      "data_dir": ".../data",       # stable storage lives here
      "trace_path": ".../trace_p0.jsonl",
      "done_path": ".../done_p0.json"
    }
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import gc
import json
import os
import sys
import time
from typing import Any

from repro.apps.applications import PipelineApp
from repro.core.recovery import DamaniGargProcess
from repro.live import codec
from repro.live.env import LiveEnv, LiveTrace
from repro.live.faults import NodeFaults
from repro.live.storage import FileStableStorage
from repro.live.transport import MeshTransport
from repro.protocols.base import ProtocolConfig
from repro.runtime.collector import collections_so_far, collector_paused
from repro.runtime.trace import EventKind
from repro.storage.intents import heal

_BOOTS_KEY = "node_boots"
#: Group-commit window for lazy storage writes (outbox bookkeeping), in
#: seconds; barriers harden everything pending regardless of it.
_STORAGE_FLUSH_WINDOW = 0.05
#: LiveTrace write batching: records per group flush and the age cap.
_TRACE_BUFFER_RECORDS = 64
_TRACE_BUFFER_SECONDS = 0.05


def build_app(spec: dict[str, Any]):
    kind = spec.get("kind", "pipeline")
    if kind == "pipeline":
        return PipelineApp(jobs=int(spec.get("jobs", 32)))
    if kind == "load":
        from repro.live.load import LoadPipelineApp

        return LoadPipelineApp(jobs=int(spec.get("jobs", 32)))
    if kind == "kv":
        from repro.service.kv import KVServiceApp

        return KVServiceApp(replicas=int(spec.get("replicas", 3)))
    raise ValueError(f"unknown app kind {kind!r}")


async def _await_epoch(path: str, timeout: float = 30.0) -> tuple[float, float]:
    """Poll for the supervisor's epoch file (written atomically).

    Returns ``(epoch, mono_anchor)`` where ``mono_anchor`` is the
    ``time.monotonic()`` reading corresponding to env-time zero, computed
    at the observation instant.  This is the process's single wall-clock
    read: from here on, env-time is purely monotonic, so wall-clock steps
    (NTP, a virtualised clock jumping) cannot warp timestamps or make
    latencies negative.  The supervisor publishes the epoch *before* any
    node can observe it, so ``time.time() - epoch >= 0`` here and env-time
    starts non-negative on every process.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                epoch = float(json.load(fh)["epoch"])
            mono_anchor = time.monotonic() - (time.time() - epoch)
            return epoch, mono_anchor
        await asyncio.sleep(0.01)
    raise RuntimeError(f"epoch file {path} never appeared")


def hold_standby(cfg: dict[str, Any]) -> float:
    """Block until stdin reaches EOF; the ``time.monotonic()`` of release.

    A warm standby is an interpreter and nothing else: every module the
    node will need is imported, and no file, socket or storage exists
    until the supervisor lets go.
    """
    if cfg.get("app", {}).get("kind") == "kv":
        # The one app run_node imports lazily (gateway pulls in kv).
        import repro.service.gateway  # noqa: F401
    sys.stdin.buffer.read()
    return time.monotonic()


async def run_node(
    cfg: dict[str, Any], released_at: float | None = None
) -> dict[str, Any]:
    """Run one node to the deadline; ``released_at`` is the monotonic
    instant a standby boot was let go (None on a cold start)."""
    pid = int(cfg["pid"])
    # Phase 1: durable boot record, THEN the server port.  A listening
    # port is the readiness signal the supervisor waits for, so any
    # SIGKILL it injects later finds the boot count already on disk.
    storage = FileStableStorage(
        pid,
        os.path.join(cfg["data_dir"], f"stable_p{pid}.pickle"),
        flush_window=_STORAGE_FLUSH_WINDOW,
    )
    # Startup recovery crawler: finish an operator rollback that was
    # killed mid-rewind, before anything (the boot counter, the transport
    # outbox) reads the image.
    heal_actions = heal(storage)
    boot = storage.get(_BOOTS_KEY, 0) + 1
    storage.put(_BOOTS_KEY, boot)

    # Fault schedule (this node's slice of the cluster's LiveFaultPlan).
    # Inactive until set_clock below: no window exists before env-time 0,
    # so the mesh handshake and epoch barrier are never disturbed.
    faults = NodeFaults(pid, cfg.get("faults", {}))
    storage.fault_hook = faults.disk_fault

    transport = MeshTransport(
        pid,
        int(cfg["n"]),
        list(cfg["ports"]),
        host=cfg.get("host", "127.0.0.1"),
        boot=boot,
        storage=storage,
        faults=faults,
    )
    await transport.start()

    # Phase 2: the epoch exists once the whole mesh is up.  Messages
    # arriving in the meantime are buffered by the transport and drained
    # only after on_start/on_restart has run (attach defers the drain).
    # The timeout scales with n via the config: booting a 64-node mesh
    # serialises ~65 interpreter starts on small machines, which can
    # exceed the old fixed 30 s before the last port accepts.
    epoch, mono_anchor = await _await_epoch(
        cfg["epoch_path"], timeout=float(cfg.get("epoch_timeout", 30.0))
    )

    trace = LiveTrace(
        open(cfg["trace_path"], "a", encoding="utf-8"),
        buffer_records=_TRACE_BUFFER_RECORDS,
        buffer_seconds=_TRACE_BUFFER_SECONDS,
    )
    # Flush-before-barrier rule: the trace buffer hits the file before
    # every stable-storage persist, so any record describing a durable
    # effect is on disk no later than the barrier that made the effect
    # durable.  See LiveTrace's bounded-loss rule.
    storage.pre_persist_hook = trace.flush
    tracer = None
    if cfg.get("obs"):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
    env = LiveEnv(
        pid=pid,
        n=int(cfg["n"]),
        storage=storage,
        transport=transport,
        epoch=epoch,
        crash_count=boot - 1,
        trace=trace,
        tracer=tracer,
        mono_anchor=mono_anchor,
    )
    if tracer is not None:
        tracer.bind_clock(lambda: env.now)
    if released_at is not None:
        trace.record(
            released_at - mono_anchor, EventKind.CUSTOM, pid,
            what="standby_released", boot=boot,
        )

    # One record per outbound-link transition from here on (the mesh's
    # first connects precede the epoch and have no env-time to carry).
    def record_link(what: str, peer: int) -> None:
        trace.record(
            env.now, EventKind.CUSTOM, pid,
            what=what, peer=peer, boot=boot, dials=transport.dial_attempts,
        )

    transport.link_hook = record_link
    # Arm the fault schedule on the shared epoch clock -- the same clock
    # the supervisor schedules SIGKILLs on, so fault windows and crash
    # times compose on one timeline.
    faults.set_clock(lambda: env.now)
    app = build_app(cfg.get("app", {}))
    protocol = DamaniGargProcess(
        env, app, ProtocolConfig(**cfg.get("config", {})),
    )
    # The run phase, from on_start/on_restart to the deadline, runs with
    # the automatic collector paused (repro.runtime.collector): what the
    # node builds here is run state that only grows, and run_seconds
    # bounds the phase.  It ends with one full collection, reported in
    # the done file.
    with collector_paused(tracer):
        collections_at_start = collections_so_far()
        if boot == 1:
            protocol.on_start()
        else:
            # The crash itself happened to the previous OS process;
            # this incarnation only has to recover.  The simulator's host
            # resumes the timer chains for us; here they died with the
            # process, so they are started fresh.
            protocol.on_restart()
            protocol.start_periodic_tasks()

        app_spec = cfg.get("app", {})
        source = None
        if app_spec.get("kind") == "load" and pid == 0:
            from repro.live.load import OpenLoopSource

            source = OpenLoopSource(
                protocol,
                rate=float(app_spec.get("rate", 100.0)),
                jobs=int(app_spec.get("jobs", 32)),
                start_at=float(app_spec.get("start_at", 0.25)),
            )
            source.start()
        service = None
        if app_spec.get("kind") == "kv":
            from repro.service.gateway import ServicePort

            service = ServicePort(pid, protocol, app, app_spec)
            await service.start()

        # The deadline runs on the env clock (monotonic since the anchor),
        # so a wall-clock step mid-run cannot stretch or truncate the
        # schedule.  An optional stop file turns the deadline into a cap:
        # the node ends its run phase as soon as the supervisor's owner
        # publishes the file.
        run_until = float(cfg["run_until"])
        stop_path = cfg.get("stop_path")
        while env.now < run_until:
            if stop_path and os.path.exists(stop_path):
                break
            await asyncio.sleep(min(0.05, max(0.005, run_until - env.now)))
        collector = {
            "run_phase_collections": collections_so_far()
            - collections_at_start,
        }
        started = time.perf_counter()
        collector["reclaimed_at_end"] = gc.collect()
        collector["end_collection_ms"] = (
            (time.perf_counter() - started) * 1e3
        )
    if source is not None:
        source.stop()
    protocol.halt_periodic_tasks()
    # Let in-flight traffic (including our own retransmissions) settle.
    # The service port stays open through the linger so clients can drain
    # replies that recovery replay re-emits.
    linger_until = time.monotonic() + float(cfg.get("linger", 1.5))
    while time.monotonic() < linger_until:
        await asyncio.sleep(0.1)
    if service is not None:
        await service.stop()

    stats = dataclasses.asdict(protocol.stats)
    stats["rollbacks_per_failure"] = {
        f"{origin}:{version}": count
        for (origin, version), count in stats["rollbacks_per_failure"].items()
    }
    done = {
        "pid": pid,
        "boot": boot,
        "env_time": env.now,
        "stats": stats,
        "outputs": codec.encode(protocol.outputs),
        "transport": {
            "sent": transport.sent_count,
            "delivered": transport.delivered_count,
            "retransmitted": transport.retransmit_count,
            "unacked": transport.unacked,
            "deliver_errors": transport.deliver_errors,
            "bytes_sent": transport.bytes_sent,
            "bytes_received": transport.bytes_received,
            "data_frames_sent": transport.data_frames_sent,
            "dial_attempts": transport.dial_attempts,
            "redials_on_hello": transport.redials_on_hello,
        },
        "faults": faults.counters(),
        "storage_persists": storage.persist_count,
        "storage_window_flushes": storage.window_flushes,
        "storage_lazy_writes": storage.lazy_writes,
        "storage_sync_writes": storage.sync_writes,
        "storage_dir_fsyncs": storage.dir_fsyncs,
        "token_log_dedups": storage.token_log_dedups,
        "heal_actions": heal_actions,
        "intents": {
            "begun": storage.intents_begun,
            "committed": storage.intents_committed,
            "aborted": storage.intents_aborted,
        },
        "trace_records": trace.records_written,
        "trace_flushes": trace.flushes,
        "trace_records_buffered_max": trace.records_buffered_max,
        "delivery_batches": transport.delivery_batches,
        "delivery_batch_max": transport.delivery_batch_max,
        "collector": collector,
    }
    if tracer is not None:
        done["obs"] = {"counters": dict(tracer.counters)}
    if source is not None:
        done["load"] = source.report()
    if service is not None:
        done["service"] = service.report()
    # Harden any lazy writes still inside the group-commit window before
    # reporting success (the done file implies a clean shutdown).
    storage.sync()
    await transport.stop()
    trace.close()
    return done


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.live.node")
    parser.add_argument("--config", required=True)
    parser.add_argument(
        "--standby", action="store_true",
        help="import everything, then wait for EOF on stdin before "
        "starting (supervisor use only)",
    )
    args = parser.parse_args(argv)
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    released_at = hold_standby(cfg) if args.standby else None
    done = asyncio.run(run_node(cfg, released_at))
    tmp = cfg["done_path"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        # Compact on purpose: ``indent`` forces the pure-Python encoder
        # over every committed output, and every reader uses json.load.
        fh.write(json.dumps(done))
    os.replace(tmp, cfg["done_path"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
