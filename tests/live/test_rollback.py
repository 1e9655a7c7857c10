"""Operator rollback: orphan preservation, witnessed audit, crash windows.

The rewind itself is a multi-step durable transition (it also writes
``rollback_audit.json`` beside the image), so it runs under a write-ahead
intent: every enumerated ``operator-rollback`` crash point is fired
mid-rewind and the startup crawler must roll the image *forward* to the
anchored frontier.
"""

import pytest

from repro.__main__ import main
from repro.live.rollback import (
    AUDIT_KEY,
    ORPHANS_KEY,
    RollbackError,
    rollback_cluster,
    rollback_storage,
)
from repro.live.storage import FileStableStorage
from repro.storage.checkpoint import SEND_LOG
from repro.storage.intents import (
    OPERATOR_ROLLBACK,
    CrashPointReached,
    crash_points,
    heal,
)


def _populate(storage):
    """Two checkpoints, four stable entries, a durable clock frontier,
    two sends before the first checkpoint and three before the second."""
    anchor = storage.checkpoints.take(
        1.0, {"uid": "a"}, 0, extras={
            "clock": {storage.pid: ("v0", 1)},
            SEND_LOG: storage.send_append(["s0", "s1"]),
        }
    )
    for i in range(4):
        storage.log.append(i, 1, f"m{i}")
    storage.log.flush()
    later = storage.checkpoints.take(
        2.0, {"uid": "b"}, 4, extras={
            "clock": {storage.pid: ("v0", 5)},
            SEND_LOG: storage.send_append(["s2", "s3", "s4"]),
        }
    )
    storage.put("stable_own", ("v0", 4))
    return anchor, later


def test_rollback_preserves_orphans_and_writes_witnessed_audit(tmp_path):
    path = str(tmp_path / "stable_p0.pickle")
    storage = FileStableStorage(0, path)
    anchor, later = _populate(storage)

    report = rollback_storage(
        storage, at=1.5, reason="bad deploy", witness="oncall"
    )
    assert report.anchor_ckpt_id == anchor.ckpt_id
    assert report.checkpoints_orphaned == 1
    assert report.log_entries_orphaned == 4

    # Primary structures rewound to the anchor frontier.
    assert [c.ckpt_id for c in storage.checkpoints] == [anchor.ckpt_id]
    assert storage.log.stable_length == 0
    assert storage.get("stable_own") == ("v0", 1)
    # The orphaned checkpoint held only an offset: its sends are cut
    # from the stream and kept with it.
    assert storage.sends == ["s0", "s1"]
    assert storage.get(ORPHANS_KEY)[0]["sends"] == ["s2", "s3", "s4"]
    reborn = FileStableStorage(0, path)
    assert reborn.sends == ["s0", "s1"]
    assert reborn.get(ORPHANS_KEY)[0]["sends"] == ["s2", "s3", "s4"]

    # Orphans are preserved -- moved, never deleted.
    area = storage.get(ORPHANS_KEY)
    assert len(area) == 1
    assert [c.ckpt_id for c in area[0]["checkpoints"]] == [later.ckpt_id]
    assert len(area[0]["entries"]) == 4
    assert area[0]["witness"] == "oncall"

    # The witnessed audit record is durable inside the image.
    audit = storage.get(AUDIT_KEY)
    assert audit[-1]["reason"] == "bad deploy"
    assert audit[-1]["witness"] == "oncall"
    assert audit[-1]["digest_before"] == report.digest_before
    assert report.digest_after is not None
    assert report.digest_after != report.digest_before

    # Everything round-trips through the file; the crawler is a no-op.
    reborn = FileStableStorage(0, path)
    assert heal(reborn) == []
    assert [c.ckpt_id for c in reborn.checkpoints] == [anchor.ckpt_id]
    assert len(reborn.get(ORPHANS_KEY)) == 1
    assert reborn.get(AUDIT_KEY)[-1]["witness"] == "oncall"


def test_dry_run_touches_nothing(tmp_path):
    path = str(tmp_path / "stable_p0.pickle")
    storage = FileStableStorage(0, path)
    _populate(storage)
    before = open(path, "rb").read()

    report = rollback_storage(storage, earliest=True, dry_run=True)
    assert report.dry_run
    assert report.digest_after is None
    assert report.checkpoints_orphaned == 1
    assert report.log_entries_orphaned == 4
    assert open(path, "rb").read() == before
    assert storage.get(ORPHANS_KEY) is None


def test_rollback_refuses_without_an_anchor(tmp_path):
    path = str(tmp_path / "stable_p0.pickle")
    storage = FileStableStorage(0, path)
    _populate(storage)
    with pytest.raises(RollbackError):
        rollback_storage(storage, at=0.5, reason="r", witness="w")
    with pytest.raises(RollbackError):
        rollback_cluster(str(tmp_path), 1, reason="r", witness="w")


@pytest.mark.parametrize("point", crash_points((OPERATOR_ROLLBACK,)))
def test_operator_rollback_crash_windows_heal_forward(tmp_path, point):
    """Kill the rewind at every persist boundary: the crawler must roll
    it forward to exactly the image a clean rewind produces."""
    ref = FileStableStorage(0, str(tmp_path / "ref.pickle"))
    _populate(ref)
    rollback_storage(ref, at=1.5, reason="r", witness="w")

    victim_path = str(tmp_path / "victim.pickle")
    victim = FileStableStorage(0, victim_path)
    _populate(victim)
    victim.arm_crash_point(point)
    with pytest.raises(CrashPointReached):
        rollback_storage(victim, at=1.5, reason="r", witness="w")

    reborn = FileStableStorage(0, victim_path)
    actions = heal(reborn)
    assert [a["action"] for a in actions] == ["rolled_forward"]
    assert actions[0]["kind"] == OPERATOR_ROLLBACK
    assert [c.ckpt_id for c in reborn.checkpoints] == [
        c.ckpt_id for c in ref.checkpoints
    ]
    assert reborn.log.stable_length == ref.log.stable_length
    assert reborn.sends == ref.sends == ["s0", "s1"]
    assert reborn.get("stable_own") == ref.get("stable_own")
    # The point of no return is the orphan-preservation persist, so the
    # orphans are always durable by the time any window can kill us.
    area = reborn.get(ORPHANS_KEY)
    assert area and len(area[0]["entries"]) == 4
    assert area[0]["sends"] == ["s2", "s3", "s4"]


def test_rollback_cli(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for pid in range(2):
        storage = FileStableStorage(
            pid, str(data / f"stable_p{pid}.pickle")
        )
        _populate(storage)

    base = [
        "rollback", "--data-dir", str(data), "-n", "2",
        "--reason", "drill", "--witness", "ops",
    ]
    assert main(base + ["--earliest", "--dry-run"]) == 0
    assert not (data / "rollback_audit.json").exists()

    assert main(base + ["--earliest"]) == 0
    assert (data / "rollback_audit.json").exists()
    for pid in range(2):
        storage = FileStableStorage(
            pid, str(data / f"stable_p{pid}.pickle")
        )
        assert len(storage.checkpoints) == 1
        assert len(storage.get(ORPHANS_KEY)) == 1

    # A missing image refuses the whole operation.
    assert main(
        ["rollback", "--data-dir", str(data), "-n", "3", "--earliest",
         "--reason", "drill", "--witness", "ops"]
    ) == 1


def test_live_rollback_round_trip(tmp_path):
    """Run a real cluster to completion, rewind every node to its
    earliest checkpoint, and restart the cluster over the rolled-back
    images.  Checkpoint 0 names the bootstrap sends on the send stream,
    so Remark-1 retransmission re-drives the entire pipeline from
    scratch: the second run must pass the unchanged conformance oracles
    on its own trace, with every output matching the closed-form
    reference."""
    import shutil

    from repro.live.supervisor import LiveClusterSpec, run_cluster
    from repro.live.verify import check_live_run

    spec = LiveClusterSpec(n=3, jobs=9, run_seconds=3.0, linger=1.0)
    w1 = str(tmp_path / "run1")
    result1 = run_cluster(spec, w1)
    verdict1 = check_live_run(result1.trace, n=spec.n, jobs=spec.jobs)
    assert verdict1.ok, verdict1.summary()

    outcome = rollback_cluster(
        str(tmp_path / "run1" / "data"), spec.n,
        earliest=True, reason="drill", witness="ops",
    )
    assert set(outcome["reports"]) == {0, 1, 2}
    for report in outcome["reports"].values():
        assert report.checkpoints_orphaned >= 1
        assert report.digest_after != report.digest_before

    w2 = str(tmp_path / "run2")
    import os
    os.makedirs(w2)
    shutil.copytree(
        str(tmp_path / "run1" / "data"), os.path.join(w2, "data")
    )
    spec2 = LiveClusterSpec(n=3, jobs=9, run_seconds=4.5, linger=1.2)
    result2 = run_cluster(spec2, w2)
    verdict2 = check_live_run(result2.trace, n=spec2.n, jobs=spec2.jobs)
    assert verdict2.ok, verdict2.summary()
    # Every node recovered through on_restart over its rewound image and
    # the lost interval was regenerated, not resurrected: all nine jobs
    # recommitted with reference values in run 2's own trace.
    assert verdict2.restarts == 3
    assert verdict2.outputs_committed == spec2.jobs
    assert all(d["boot"] == 2 for d in result2.done.values())
    assert set(result2.exit_codes.values()) == {0}, result2.exit_codes
