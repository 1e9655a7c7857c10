"""Cluster supervisor: spawn the nodes, kill some of them, merge the story.

The supervisor is the live counterpart of the simulator's
:class:`~repro.sim.failures.FailureInjector`: it starts one OS process
per cluster member, delivers each planned crash with a real ``SIGKILL``
(no cleanup handlers, no flushes -- the closest a kernel offers to the
paper's fail-stop model), restarts the victim after its downtime from
the same stable-storage directory, and finally merges the per-process
JSONL traces (plus its own crash records) into one
:class:`~repro.runtime.trace.SimTrace` the oracles can read.

The replacement of a dead process is started as a **warm standby** the
moment the death is recorded (``repro.live.node --standby``: imports
done, blocked on a pipe, nothing opened) and released by closing the
pipe when the downtime ends.  ``downtime`` keeps its meaning -- for that
long the process holds no state, no port and no file -- and what the
client no longer pays on top of it is an interpreter start.

The cluster epoch (shared env-time zero) is published through a
**readiness barrier**, not a fixed spawn margin: the supervisor polls
every node's transport port until the whole mesh accepts connections,
and only then writes the epoch file the nodes are waiting on.  Interpreter
startup time therefore cannot eat into the schedule -- a crash planned at
env-time ``t`` always hits a node that has durably recorded its boot and
is reachable by its peers, which is what makes crash/restart runs
reproducible enough to grade with the oracles.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.live.env import merge_traces
from repro.live.faults import LiveFaultPlan
from repro.runtime.trace import EventKind, SimTrace


@dataclass(frozen=True)
class LiveCrashPlan:
    """SIGKILL process ``pid`` at env-time ``at``; restart after
    ``downtime`` seconds."""

    pid: int
    at: float
    downtime: float = 1.0


@dataclass(frozen=True)
class LiveCrashPointPlan:
    """Arm stable-storage crash point ``point`` on process ``pid``.

    The armed incarnation SIGKILLs *itself* the instant the named
    durable step's persist lands (see :mod:`repro.storage.intents`), so
    the on-disk image at death is exactly the partial state the point
    names.  With ``at`` unset the point is armed at first boot; with
    ``at`` set, an ordinary supervisor SIGKILL is delivered at env-time
    ``at`` and the *respawned* incarnation boots armed instead -- the
    only way to reach the restart-transition crash windows.  Either way
    the supervisor watches for the self-kill, records the CRASH, and
    respawns a clean (unarmed) node after ``downtime``.
    """

    pid: int
    point: str
    at: float | None = None
    downtime: float = 1.0


@dataclass
class LiveClusterSpec:
    """One live run: topology, workload, failure plan, pacing."""

    n: int = 4
    jobs: int = 32
    protocol: str = "damani-garg"
    run_seconds: float = 6.0
    linger: float = 1.5
    checkpoint_interval: float = 0.5
    flush_interval: float = 0.15
    crashes: list[LiveCrashPlan] = field(default_factory=list)
    # Stable-storage crash-window injection (at most one plan per pid):
    # the armed node SIGKILLs itself when the named durable step lands.
    crash_points: list[LiveCrashPointPlan] = field(default_factory=list)
    # Network/disk fault schedule (partitions, gray links, disk faults,
    # corrupt frames).  Compiled per node into the config files; each
    # node enforces its slice on the shared epoch clock.
    faults: LiveFaultPlan = field(default_factory=LiveFaultPlan)
    host: str = "127.0.0.1"
    # Application spec passed to every node.  None means the classic
    # closed pipeline workload ({"kind": "pipeline", "jobs": jobs});
    # ``repro.live.load.load_spec`` substitutes an open-loop source here
    # and the service its KV application.
    app: dict[str, Any] | None = None
    # Cooperative early stop: when set, every node polls this path and
    # ends its run phase as soon as the file exists, making
    # ``run_seconds`` a *cap* rather than a fixed duration.  The service
    # uses it to stop shards the moment the workload and its audit
    # complete, whatever the machine's speed.
    stop_path: str | None = None
    # Stability gossip interval (None = off): gossip frontiers and run
    # GC locally.  Off by default so existing runs keep their storage
    # profile byte-for-byte.
    gossip_interval: float | None = None
    enable_gc: bool = False
    # Per-process observability: each node builds a live Tracer, the
    # protocol layers report into it (dg.wire_* counters among others),
    # and the counters land in the done report under "obs".  Off by
    # default -- the tracer never feeds back into protocol logic, but
    # the counters cost real work on the hot path.
    obs: bool = False

    def protocol_config(self) -> dict[str, Any]:
        return {
            "checkpoint_interval": self.checkpoint_interval,
            "flush_interval": self.flush_interval,
            # Remark 1 is what makes real message loss at a sender crash
            # recoverable; the live runtime always enables it.
            "retransmit_on_token": True,
            "gossip_interval": self.gossip_interval,
            "enable_gc": self.enable_gc,
        }


@dataclass
class LiveRunResult:
    """Everything the run left behind."""

    spec: LiveClusterSpec
    workdir: str
    trace: SimTrace
    done: dict[int, dict[str, Any]]       # pid -> final done report
    kills: list[tuple[int, float]]        # (pid, env-time of SIGKILL)
    wall_seconds: float
    exit_codes: dict[int, int]
    # Crash-point self-kills observed: (pid, point, env-time).  A subset
    # of ``kills``; empty when the armed window was never reached.
    point_kills: list[tuple[int, str, float]] = field(default_factory=list)

    @property
    def total_delivered(self) -> int:
        return sum(
            d["stats"]["app_delivered"] for d in self.done.values()
        )


def _free_ports(n: int, host: str) -> list[int]:
    """Reserve ``n`` distinct free ports (best-effort: bind, read, close)."""
    sockets, ports = [], []
    for _ in range(n):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind((host, 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


def _await_ports(
    ports: list[int],
    host: str,
    procs: dict[int, subprocess.Popen],
    timeout: float = 30.0,
) -> None:
    """Block until every node's server port accepts connections."""
    deadline = time.time() + timeout
    for pid, port in enumerate(ports):
        while True:
            if procs[pid].poll() is not None:
                raise RuntimeError(
                    f"node p{pid} exited (code {procs[pid].returncode}) "
                    "before binding its port"
                )
            try:
                with socket.create_connection((host, port), timeout=0.25):
                    break
            except OSError:
                if time.time() > deadline:
                    raise RuntimeError(
                        f"node p{pid} never bound port {port}"
                    ) from None
                time.sleep(0.02)


def _publish_epoch(path: str, epoch: float) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"epoch": epoch}, fh)
    os.replace(tmp, path)


def _spawn(
    config_path: str, log_path: str, *, standby: bool = False
) -> subprocess.Popen:
    """Start one node; a ``standby`` one waits for its stdin to close."""
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_root
    )
    argv = [sys.executable, "-m", "repro.live.node", "--config", config_path]
    # The child holds its own copy of the log descriptor after the fork.
    with open(log_path, "a", encoding="utf-8") as log:
        return subprocess.Popen(
            argv + ["--standby"] if standby else argv,
            stdin=subprocess.PIPE if standby else None,
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,
        )


def run_cluster(spec: LiveClusterSpec, workdir: str) -> LiveRunResult:
    """Run one live cluster to completion and collect its artifacts."""
    children: list[subprocess.Popen] = []
    try:
        return _run_cluster(spec, workdir, children)
    finally:
        # No way out of a run -- a node that never bound its port, an
        # interrupt, a standby whose release never came -- leaves a
        # ``repro.live.node`` process behind.
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
            if child.stdin is not None:
                child.stdin.close()


def _run_cluster(
    spec: LiveClusterSpec, workdir: str, children: list[subprocess.Popen]
) -> LiveRunResult:
    """:func:`run_cluster` proper; every process started joins ``children``."""
    spec.faults.validate(spec.n)
    os.makedirs(workdir, exist_ok=True)
    data_dir = os.path.join(workdir, "data")
    os.makedirs(data_dir, exist_ok=True)
    ports = _free_ports(spec.n, spec.host)
    epoch_path = os.path.join(workdir, "epoch.json")
    if os.path.exists(epoch_path):
        os.remove(epoch_path)   # stale epoch from a previous run

    point_plans: dict[int, LiveCrashPointPlan] = {}
    for plan in spec.crash_points:
        if plan.pid in point_plans:
            raise ValueError(f"multiple crash-point plans for pid {plan.pid}")
        point_plans[plan.pid] = plan

    config_paths, trace_paths, done_paths, log_paths = [], [], [], []
    armed_config_paths: dict[int, str] = {}
    for pid in range(spec.n):
        cfg = {
            "pid": pid,
            "n": spec.n,
            "host": spec.host,
            "ports": ports,
            "epoch_path": epoch_path,
            "run_until": spec.run_seconds,
            "stop_path": spec.stop_path,
            "linger": spec.linger,
            "protocol": spec.protocol,
            "app": (
                spec.app
                if spec.app is not None
                else {"kind": "pipeline", "jobs": spec.jobs}
            ),
            "config": spec.protocol_config(),
            "obs": spec.obs,
            # Booting an n-node mesh serialises ~n interpreter starts on
            # small machines; give the barrier headroom that grows with
            # the cluster instead of a one-size 30 s.
            "epoch_timeout": 30.0 + spec.n,
            "faults": spec.faults.for_node(pid, spec.n),
            "data_dir": data_dir,
            "trace_path": os.path.join(workdir, f"trace_p{pid}.jsonl"),
            "done_path": os.path.join(workdir, f"done_p{pid}.json"),
        }
        path = os.path.join(workdir, f"config_p{pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
        config_paths.append(path)
        if pid in point_plans:
            # The armed variant is a separate file so the clean config is
            # always available for the post-self-kill respawn: the point
            # must fire exactly once per plan, never on the recovery boot.
            armed = dict(cfg, crash_point=point_plans[pid].point)
            armed_path = os.path.join(workdir, f"config_p{pid}_armed.json")
            with open(armed_path, "w", encoding="utf-8") as fh:
                json.dump(armed, fh, indent=2)
            armed_config_paths[pid] = armed_path
        trace_paths.append(cfg["trace_path"])
        done_paths.append(cfg["done_path"])
        log_paths.append(os.path.join(workdir, f"node_p{pid}.log"))

    def spawn(
        pid: int, config_path: str, standby: bool = False
    ) -> subprocess.Popen:
        child = _spawn(config_path, log_paths[pid], standby=standby)
        children.append(child)
        return child

    start_wall = time.time()
    # Plans with ``at=None`` boot armed; ``at``-based plans boot clean and
    # are re-armed on the respawn after the scheduled SIGKILL (the only
    # way to land inside a restart-transition window).  Arming is safe
    # before the epoch barrier: crash points fire only on persists made
    # inside an intent-carrying transition, and the first of those is
    # checkpoint 0, strictly after the epoch wait.
    procs = {
        pid: spawn(
            pid,
            armed_config_paths[pid]
            if pid in point_plans and point_plans[pid].at is None
            else config_paths[pid],
        )
        for pid in range(spec.n)
    }

    # Readiness barrier: every node has durably recorded its boot and
    # bound its port before env-time starts, so the crash schedule below
    # can never land on a half-started interpreter.  Timeout scales with
    # n for the same reason as the nodes' epoch_timeout.
    _await_ports(ports, spec.host, procs, timeout=30.0 + spec.n)
    # The epoch is *now*, not a point in the future: nodes observe the
    # file strictly after this instant, so env-time is non-negative on
    # every process.  (The old ``time.time() + 0.1`` pre-dated publish by
    # design and made every early event -- including job outputs -- carry
    # a negative timestamp.)  ``epoch_mono`` is the same instant on the
    # monotonic clock; all supervisor-side scheduling below uses it so a
    # wall-clock step cannot shift kill times.
    epoch = time.time()
    epoch_mono = time.monotonic()
    _publish_epoch(epoch_path, epoch)

    def env_now() -> float:
        return time.monotonic() - epoch_mono

    # Supervisor-side trace: the CRASH events (a SIGKILLed process cannot
    # record its own death, and an armed node that SIGKILLs *itself*
    # cannot either -- the supervisor observes the -SIGKILL exit and
    # records it here).
    sup_trace_path = os.path.join(workdir, "trace_supervisor.jsonl")
    kills: list[tuple[int, float]] = []
    point_kills: list[tuple[int, str, float]] = []
    crash_counts: dict[int, int] = {}
    # Replacements held warm: pid -> (env-time of release, the process).
    standbys: dict[int, tuple[float, subprocess.Popen]] = {}
    with open(sup_trace_path, "w", encoding="utf-8") as sup_trace:

        def record_kill(pid: int, respawn_config: str, downtime: float) -> float:
            """One death, however it came about (scheduled SIGKILL, armed
            re-kill, observed self-kill): note it, trace it, and start
            the replacement as a standby due ``downtime`` from now."""
            kill_time = env_now()
            kills.append((pid, kill_time))
            crash_counts[pid] = crash_counts.get(pid, 0) + 1
            sup_trace.write(
                json.dumps(
                    {
                        "t": kill_time,
                        "kind": EventKind.CRASH.value,
                        "pid": pid,
                        "fields": {"count": crash_counts[pid]},
                    }
                )
                + "\n"
            )
            sup_trace.flush()
            standbys[pid] = (
                kill_time + downtime, spawn(pid, respawn_config, standby=True)
            )
            return kill_time

        def release(pid: int) -> None:
            _, procs[pid] = standbys.pop(pid)
            procs[pid].stdin.close()

        # One loop drives both failure modes: scheduled SIGKILLs fire at
        # their planned env-times while armed nodes are concurrently
        # watched for self-kills (a boot-armed point can fire during any
        # sleep, so a purely sequential schedule would sit on its corpse
        # for the rest of the run).
        schedule: list[tuple[str, float, Any]] = sorted(
            [("kill", c.at, c) for c in spec.crashes]
            + [
                ("arm", p.at, p)
                for p in spec.crash_points
                if p.at is not None
            ],
            key=lambda item: item[1],
        )
        watching: dict[int, LiveCrashPointPlan] = {
            p.pid: p for p in spec.crash_points if p.at is None
        }
        watch_until = spec.run_seconds + spec.linger
        while schedule or watching or standbys:
            now = env_now()
            if now > watch_until:
                # The run is over; unfired points stay unfired (recorded
                # as an empty point_kills entry set), but every held
                # standby is still released so the final wait sees live
                # processes, not supervisor-orphaned ones.
                schedule.clear()
                watching.clear()
                for pid in list(standbys):
                    release(pid)
                break
            for pid in [p for p, (due, _) in standbys.items() if due <= now]:
                release(pid)
            while schedule and schedule[0][1] <= now:
                mode, _, plan = schedule.pop(0)
                victim = procs[plan.pid]
                victim.kill()   # SIGKILL
                victim.wait()
                armed = mode == "arm"
                record_kill(
                    plan.pid,
                    (armed_config_paths if armed else config_paths)[plan.pid],
                    plan.downtime,
                )
                if armed:
                    # Respawned armed; the self-kill watcher takes over
                    # once the armed incarnation is actually running.
                    watching[plan.pid] = plan
            for pid in list(watching):
                if pid in standbys:
                    continue   # armed incarnation not released yet
                code = procs[pid].poll()
                if code is None:
                    continue
                plan = watching.pop(pid)
                if code == -signal.SIGKILL:
                    kill_time = record_kill(
                        pid, config_paths[pid], plan.downtime
                    )
                    point_kills.append((pid, plan.point, kill_time))
                # Any other exit: the node finished without reaching the
                # window; nothing to heal, nothing to respawn.
            # Sleep to the next kill or release, 20 ms at most (the
            # self-kill watch above has no due time to sleep towards).
            due = [when for when, _ in standbys.values()]
            if schedule:
                due.append(schedule[0][1])
            time.sleep(max(0.0, min([0.02] + [t - env_now() for t in due])))

    # Wait for the nodes to finish (they self-terminate at the deadline).
    hard_stop = spec.run_seconds + spec.linger + 10.0
    exit_codes: dict[int, int] = {}
    for pid, proc in procs.items():
        remaining = max(0.1, hard_stop - env_now())
        try:
            exit_codes[pid] = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            exit_codes[pid] = -signal.SIGKILL
    wall_seconds = time.time() - start_wall

    done: dict[int, dict[str, Any]] = {}
    for pid, path in enumerate(done_paths):
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                done[pid] = json.load(fh)

    trace = merge_traces(
        [p for p in trace_paths if os.path.exists(p)] + [sup_trace_path]
    )
    return LiveRunResult(
        spec=spec,
        workdir=workdir,
        trace=trace,
        done=done,
        kills=kills,
        wall_seconds=wall_seconds,
        exit_codes=exit_codes,
        point_kills=point_kills,
    )
