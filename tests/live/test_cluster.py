"""End-to-end live cluster: real OS processes, real SIGKILL, real TCP.

One bounded scenario keeps the suite honest without making it slow: a
3-process pipeline where the middle stage is SIGKILLed mid-run, restarts
from its file-backed stable storage, and the merged trace must pass the
conformance oracles (full recovery, no orphan output, all jobs done).
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.live import supervisor
from repro.live.supervisor import LiveClusterSpec, LiveCrashPlan, run_cluster
from repro.live.verify import check_live_run, recovery_timeline
from repro.runtime.trace import EventKind
from tests.runtime.test_collector_pause import LIVE_RECLAIMED_MAX


def _node_children():
    """``{os pid: argv}`` of this process's live ``repro.live.node``
    children (zombies excluded: a reaped-later corpse holds nothing)."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                argv = fh.read().decode().split("\0")
        except OSError:
            continue   # exited while we were looking
        if (
            int(ppid) == os.getpid() and state != "Z"
            and "repro.live.node" in argv
        ):
            found[int(entry)] = argv
    return found


def test_cluster_survives_a_sigkill(tmp_path):
    spec = LiveClusterSpec(
        n=3,
        jobs=9,
        run_seconds=3.5,
        linger=1.0,
        crashes=[LiveCrashPlan(pid=1, at=0.8, downtime=0.8)],
    )
    result = run_cluster(spec, str(tmp_path))

    # The kill really happened and really was a SIGKILL.
    assert len(result.kills) == 1
    assert result.kills[0][0] == 1

    verdict = check_live_run(result.trace, n=spec.n, jobs=spec.jobs)
    assert verdict.ok, verdict.summary()
    assert verdict.crashes == 1
    assert verdict.restarts >= 1
    assert verdict.outputs_committed == spec.jobs

    # Every node exited cleanly (no orphan processes, no crashes at exit).
    assert set(result.exit_codes.values()) == {0}, result.exit_codes

    # The restarted node resumed from its durable image: its trace shows
    # a checkpoint RESTORE before the post-restart work.
    restores = [e for e in result.trace.events(EventKind.RESTORE) if
                e.pid == 1]
    assert restores, "p1 restarted but never restored a checkpoint"

    # Every node, the restarted one included, ran its run phase without
    # the automatic collector, and the full collection that ends it finds
    # no more than the imports left behind.
    assert sorted(result.done) == list(range(spec.n))
    for pid, done in result.done.items():
        collector = done["collector"]
        assert collector["run_phase_collections"] == 0, (pid, collector)
        assert collector["reclaimed_at_end"] <= LIVE_RECLAIMED_MAX, (
            pid, collector,
        )

    # Per-node artifacts exist for debugging.
    for pid in range(spec.n):
        assert os.path.exists(os.path.join(str(tmp_path),
                                           f"trace_p{pid}.jsonl"))
        assert os.path.exists(os.path.join(str(tmp_path), "data",
                                           f"stable_p{pid}.pickle"))


def test_cluster_recovers_twice_under_gossiped_stability(tmp_path):
    """Live-engine GC boundary test: two SIGKILLs of the same node make
    token v1 supersede token v0, and gossiped frontiers drive local
    apply_stability sweeps (no coordinator) that run GC while crashes
    land around them.  The run must stay oracle-clean."""
    spec = LiveClusterSpec(
        n=3,
        jobs=9,
        run_seconds=5.0,
        linger=1.2,
        crashes=[
            LiveCrashPlan(pid=1, at=0.6, downtime=0.6),
            LiveCrashPlan(pid=1, at=2.4, downtime=0.6),
        ],
        gossip_interval=0.4,
        enable_gc=True,
    )
    result = run_cluster(spec, str(tmp_path))

    assert len(result.kills) == 2
    verdict = check_live_run(result.trace, n=spec.n, jobs=spec.jobs)
    assert verdict.ok, verdict.summary()
    assert verdict.crashes == 2
    assert set(result.exit_codes.values()) == {0}, result.exit_codes


def test_env_clocks_stay_monotonic_across_sigkill_restart(tmp_path):
    """Regression for the negative-latency bug: every trace timestamp
    must be non-negative, and each process's trace file -- which spans
    the SIGKILL boundary, with the two incarnations anchoring env-time
    independently -- must never step backwards."""
    import json

    spec = LiveClusterSpec(
        n=3,
        jobs=6,
        run_seconds=3.0,
        linger=1.0,
        crashes=[LiveCrashPlan(pid=1, at=0.6, downtime=0.6)],
    )
    result = run_cluster(spec, str(tmp_path))
    verdict = check_live_run(result.trace, n=spec.n, jobs=spec.jobs)
    assert verdict.ok, verdict.summary()

    # Merged trace: nothing before env-time zero, outputs included.
    assert all(e.time >= 0.0 for e in result.trace), (
        "trace carries events before the cluster epoch"
    )
    outputs = result.trace.events(EventKind.OUTPUT)
    assert outputs and all(e.time >= 0.0 for e in outputs)

    # Per-process files: monotonic across the crash/restart boundary.
    for pid in range(spec.n):
        path = os.path.join(str(tmp_path), f"trace_p{pid}.jsonl")
        with open(path, "r", encoding="utf-8") as fh:
            stamps = [json.loads(line)["t"] for line in fh if line.strip()]
        assert stamps, f"p{pid} wrote no trace"
        assert stamps == sorted(stamps), (
            f"p{pid} trace time-warped across restart"
        )

    # The done reports carry sane env-clock readings too.
    for pid, done in result.done.items():
        assert done["env_time"] > 0.0


def test_standby_holds_nothing_until_the_downtime_ends(tmp_path):
    """The replacement is spawned warm at the kill, but for the whole
    downtime it is an interpreter and nothing else: no stable-storage
    file open, no trace line written, its port refusing connections --
    and the victim's recovery never starts before ``kill + downtime``."""
    workdir = str(tmp_path)
    downtime = 1.5
    spec = LiveClusterSpec(
        n=3,
        jobs=9,
        run_seconds=4.0,
        linger=1.0,
        crashes=[LiveCrashPlan(pid=1, at=0.6, downtime=downtime)],
    )
    results = []
    runner = threading.Thread(
        target=lambda: results.append(run_cluster(spec, workdir))
    )
    runner.start()
    try:
        # The CRASH record is flushed before the standby is spawned.
        crash_log = os.path.join(workdir, "trace_supervisor.jsonl")
        deadline = time.monotonic() + 30.0
        while not (os.path.exists(crash_log) and os.path.getsize(crash_log)):
            assert time.monotonic() < deadline, "the kill never came"
            time.sleep(0.02)
        noticed = time.monotonic()
        with open(os.path.join(workdir, "config_p1.json")) as fh:
            cfg = json.load(fh)
        trace_size = os.path.getsize(cfg["trace_path"])
        # Two looks: one while it is still importing, one well after it
        # has gone to sleep on the pipe (and well before the release).
        for look_at in (0.1, 0.9):
            time.sleep(max(0.0, noticed + look_at - time.monotonic()))
            standbys = {
                ospid: argv for ospid, argv in _node_children().items()
                if "--standby" in argv
            }
            assert len(standbys) == 1, standbys
            (ospid, argv), = standbys.items()
            assert argv[argv.index("--config") + 1] == os.path.join(
                workdir, "config_p1.json"
            )
            held = [
                os.readlink(f"/proc/{ospid}/fd/{fd}")
                for fd in os.listdir(f"/proc/{ospid}/fd")
            ]
            assert not [
                path for path in held
                if path.startswith(cfg["data_dir"]) or path == cfg["trace_path"]
            ], held
            assert not [path for path in held if path.startswith("socket:")]
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(
                    (cfg["host"], cfg["ports"][1]), timeout=0.25
                )
            assert os.path.getsize(cfg["trace_path"]) == trace_size
    finally:
        runner.join(timeout=60.0)
    assert not runner.is_alive()
    (result,) = results

    verdict = check_live_run(result.trace, n=spec.n, jobs=spec.jobs)
    assert verdict.ok, verdict.summary()
    assert set(result.exit_codes.values()) == {0}, result.exit_codes
    assert result.done[1]["boot"] == 2
    assert _node_children() == {}

    (kill,) = result.kills
    restores = [
        e.time for e in result.trace.events(EventKind.RESTORE, pid=1)
        if e.get("reason") == "restart"
    ]
    assert restores and min(restores) >= kill[1] + downtime
    (timeline,) = recovery_timeline(result.trace)
    steps = [
        timeline.kill + downtime, timeline.released, timeline.restart,
        timeline.token, timeline.peers_done,
    ]
    assert steps == sorted(steps), timeline.summary()
    # The interpreter start is off the critical path: released to
    # restoring in milliseconds, not the quarter second a cold one costs.
    assert timeline.restart - timeline.released < 0.1, timeline.summary()


def test_run_ending_inside_a_downtime_leaves_no_child(tmp_path):
    """The run's end releases a still-held standby instead of spawning a
    second replacement beside it; the released node sees the deadline
    gone, lingers, reports and exits like any other."""
    spec = LiveClusterSpec(
        n=3,
        jobs=3,
        run_seconds=1.0,
        linger=0.3,
        crashes=[LiveCrashPlan(pid=1, at=0.8, downtime=30.0)],
    )
    result = run_cluster(spec, str(tmp_path))
    assert len(result.kills) == 1
    assert set(result.exit_codes.values()) == {0}, result.exit_codes
    assert result.done[1]["boot"] == 2
    assert _node_children() == {}


def test_failed_run_leaves_no_child(tmp_path, monkeypatch):
    def never_ready(*args, **kwargs):
        assert len(_node_children()) == 2
        raise RuntimeError("node p0 never bound port")

    monkeypatch.setattr(supervisor, "_await_ports", never_ready)
    with pytest.raises(RuntimeError, match="never bound"):
        run_cluster(LiveClusterSpec(n=2, jobs=1), str(tmp_path))
    assert _node_children() == {}


def test_survivors_relink_the_moment_the_victim_is_back(tmp_path):
    """n=8, one SIGKILL, 0.8 s of downtime -- long enough for every
    survivor to be two or three doublings into its dial backoff.  All
    seven are linked to the victim again within 0.25 s of its RESTART:
    they redial on its hello, not on their timers."""
    spec = LiveClusterSpec(
        n=8,
        jobs=8,
        run_seconds=4.0,
        linger=1.0,
        crashes=[LiveCrashPlan(pid=3, at=1.0, downtime=0.8)],
    )
    result = run_cluster(spec, str(tmp_path))
    verdict = check_live_run(result.trace, n=spec.n, jobs=spec.jobs)
    assert verdict.ok, verdict.summary()

    (timeline,) = recovery_timeline(result.trace)
    relinks = [
        e for e in result.trace.events(EventKind.CUSTOM)
        if e.get("what") == "link_up" and e.get("peer") == 3
        and e.time >= timeline.kill
    ]
    # Every survivor, once each: no link flapped on the way back.
    assert sorted(e.pid for e in relinks) == [0, 1, 2, 4, 5, 6, 7]
    assert timeline.links_up == max(e.time for e in relinks)
    assert timeline.links_up - timeline.restart <= 0.25, timeline.summary()
    assert sum(
        d["transport"]["redials_on_hello"] for d in result.done.values()
    ) >= 1
    assert _node_children() == {}
