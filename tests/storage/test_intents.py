"""Write-ahead intent journal + startup recovery crawler tests.

Covers the journal lifecycle on the in-memory storage, the heal policy
(abort vs roll-forward) for every intent kind, and -- via the crash-point
matrix at the bottom -- a scripted FileStableStorage driver per kind that
is killed at every enumerated crash point and must heal back to either
the pre-transition image (abort kinds) or the completed-transition image
(forward kinds).
"""

import pytest

from repro.storage import intents
from repro.storage.checkpoint import SEND_LOG
from repro.storage.intents import (
    AUDIT_TAIL,
    BEGUN,
    CHECKPOINT,
    COMPACTION,
    FLUSH,
    HEAL_LOG_KEY,
    INTENT_STEPS,
    LIVE_CRASH_POINTS,
    OPERATOR_ROLLBACK,
    RECOVERED_ENTRIES_KEY,
    RESTART,
    ROLLBACK,
    SIM_CRASH_POINTS,
    CrashPointReached,
    crash_points,
    heal,
)
from repro.storage.stable import StableStorage


# ---------------------------------------------------------------------------
# Journal lifecycle (in-memory storage)
# ---------------------------------------------------------------------------
def test_begin_advance_commit_lifecycle():
    storage = StableStorage(0)
    intent = storage.begin_intent(CHECKPOINT, note="x")
    assert intent is not None
    assert intent.step == BEGUN
    assert intent.payload == {"note": "x"}
    assert storage.active_intent() is intent

    storage.advance_intent(intent, "log_flushed")
    assert intent.step == "log_flushed"

    storage.commit_intent(intent)
    assert intent.status == "committed"
    assert storage.active_intent() is None
    assert storage.intent_audit()[-1] is intent
    assert storage.intents_begun == 1
    assert storage.intents_committed == 1


def test_abort_records_reason():
    storage = StableStorage(0)
    intent = storage.begin_intent(FLUSH)
    storage.abort_intent(intent, reason="healed")
    assert intent.status == "aborted"
    assert intent.payload["abort_reason"] == "healed"
    assert storage.active_intent() is None
    assert storage.intents_aborted == 1


def test_nested_begin_returns_none_and_tolerant_ops():
    storage = StableStorage(0)
    outer = storage.begin_intent(CHECKPOINT)
    inner = storage.begin_intent(FLUSH)
    assert inner is None
    # None-tolerant: the nested call sites stay unconditional.
    storage.advance_intent(inner, "log_flushed")
    storage.commit_intent(inner)
    storage.abort_intent(inner)
    assert storage.active_intent() is outer
    storage.commit_intent(outer)
    assert storage.active_intent() is None


def test_audit_tail_is_bounded():
    storage = StableStorage(0)
    for i in range(AUDIT_TAIL + 5):
        intent = storage.begin_intent(FLUSH, seq=i)
        storage.commit_intent(intent)
    audit = storage.intent_audit()
    assert len(audit) == AUDIT_TAIL
    assert audit[-1].payload["seq"] == AUDIT_TAIL + 4
    # Ids keep counting even though the tail is bounded.
    assert storage._intent_next_id == AUDIT_TAIL + 5


def test_crash_point_enumeration():
    # Every kind:step pair, nothing else; sim excludes ":committed".
    expected = {
        f"{kind}:{step}"
        for kind, steps in INTENT_STEPS.items()
        for step in steps
        if kind != OPERATOR_ROLLBACK
    }
    assert set(SIM_CRASH_POINTS) == expected
    assert set(LIVE_CRASH_POINTS) == expected | {
        f"{kind}:committed"
        for kind in INTENT_STEPS
        if kind != OPERATOR_ROLLBACK
    }
    assert crash_points((OPERATOR_ROLLBACK,)) == (
        "operator-rollback:orphans_preserved",
        "operator-rollback:checkpoints_discarded",
        "operator-rollback:log_truncated",
    )


def test_in_memory_firing_semantics():
    """In-memory storage fires a point when its step's persist *would*
    land: commit fires the last step; fire-once semantics."""
    storage = StableStorage(0)
    storage.arm_crash_point("checkpoint:log_flushed", downtime=2.5)
    intent = storage.begin_intent(CHECKPOINT)
    storage.advance_intent(intent, "log_flushed")  # fires checkpoint:begun -> unarmed
    with pytest.raises(CrashPointReached) as exc:
        storage.commit_intent(intent)
    assert exc.value.point == "checkpoint:log_flushed"
    assert exc.value.downtime == 2.5
    # Fired once: the point is disarmed and the intent is still active
    # (commit raised before retiring), exactly the crashed image.
    assert storage.armed_crash_points() == set()
    assert storage.active_intent() is intent
    storage.commit_intent(intent)
    assert storage.active_intent() is None


def test_crash_point_custom_action():
    fired = []
    storage = StableStorage(0)
    storage.arm_crash_point("flush:log_flushed", action=fired.append)
    intent = storage.begin_intent(FLUSH)
    storage.advance_intent(intent, "log_flushed")
    storage.commit_intent(intent)  # action instead of raise
    assert fired == ["flush:log_flushed"]
    assert storage.active_intent() is None


# ---------------------------------------------------------------------------
# Heal policy
# ---------------------------------------------------------------------------
def test_heal_is_a_no_op_on_clean_image():
    storage = StableStorage(0)
    storage.put("k", 1)
    writes_before = storage.sync_writes
    assert heal(storage) == []
    # Zero writes: golden traces cannot be disturbed by the crawler.
    assert storage.sync_writes == writes_before
    assert storage.get(HEAL_LOG_KEY) is None


@pytest.mark.parametrize("kind", [CHECKPOINT, FLUSH, RESTART])
def test_heal_rolls_back_harmless_prefix_kinds(kind):
    storage = StableStorage(0)
    intent = storage.begin_intent(kind)
    storage.advance_intent(intent, INTENT_STEPS[kind][0])

    actions = heal(storage)

    assert [a["action"] for a in actions] == ["rolled_back"]
    assert actions[0]["kind"] == kind
    assert storage.active_intent() is None
    assert storage.intent_audit()[-1].status == "aborted"
    assert storage.intent_audit()[-1].payload["abort_reason"] == "healed"
    assert storage.get(HEAL_LOG_KEY) == actions


def _storage_with_rollback_in_flight(step):
    """Image of a rollback crashed right after reaching ``step``."""
    storage = StableStorage(0)
    anchor = storage.checkpoints.take(
        1.0, {"uid": "a"}, 0, extras={SEND_LOG: storage.send_append(["s0"])}
    )
    for i in range(4):
        storage.log.append(i, 1, f"m{i}")
    storage.log.flush()
    later = storage.checkpoints.take(
        2.0, {"uid": "b"}, 4, extras={SEND_LOG: storage.send_append(["s1"])}
    )
    intent = storage.begin_intent(
        ROLLBACK,
        token=(1, 0, 3),
        anchor_ckpt_id=anchor.ckpt_id,
        truncate_at=2,
        stable_own=("v", 7),
    )
    steps = INTENT_STEPS[ROLLBACK]
    for s in steps[: steps.index(step) + 1]:
        storage.advance_intent(intent, s)
        if s == "checkpoints_discarded":
            storage.checkpoints.discard_after(anchor)
        elif s == "log_truncated":
            storage.log.truncate(2)
    return storage, anchor, later


@pytest.mark.parametrize(
    "step", ["log_flushed", "checkpoints_discarded", "log_truncated"]
)
def test_heal_rolls_rollback_forward(step):
    storage, anchor, _later = _storage_with_rollback_in_flight(step)

    actions = heal(storage)

    assert [a["action"] for a in actions] == ["rolled_forward"]
    assert storage.active_intent() is None
    assert storage.intent_audit()[-1].status == "committed"
    # Target state reached no matter where the crash landed.
    assert [c.ckpt_id for c in storage.checkpoints] == [anchor.ckpt_id]
    assert [e.index for e in storage.log.stable_entries()] == [0, 1]
    assert storage.sends == ["s0"]
    assert storage.get("stable_own") == ("v", 7)
    # Truncated entries preserved, never deleted -- unless the crash
    # already landed past the truncation (they died with the original
    # run's truncate, which the protocol had already accounted for).
    preserved = storage.get(RECOVERED_ENTRIES_KEY) or []
    if step == "log_truncated":
        assert preserved == []
    else:
        assert [e.index for e in preserved] == [2, 3]
    # Idempotent: a second heal finds a clean image.
    assert heal(storage) == []


def test_heal_preservation_dedups_by_entry_index():
    storage, _anchor, _later = _storage_with_rollback_in_flight("log_flushed")
    stale = storage.log.stable_entries(2)
    storage.put(RECOVERED_ENTRIES_KEY, stale)  # as if a prior heal ran
    heal(storage)
    preserved = storage.get(RECOVERED_ENTRIES_KEY)
    assert [e.index for e in preserved] == [2, 3]


def test_heal_rolls_compaction_forward():
    storage = StableStorage(0)
    storage.checkpoints.take(1.0, {"uid": "a"}, 0)
    for i in range(3):
        storage.log.append(i, 1, f"m{i}")
    storage.log.flush()
    anchor = storage.checkpoints.take(2.0, {"uid": "b"}, 3)
    intent = storage.begin_intent(
        COMPACTION, anchor_ckpt_id=anchor.ckpt_id, anchor_position=3
    )
    storage.advance_intent(intent, "checkpoints_collected")
    storage.checkpoints.garbage_collect_before(anchor.ckpt_id)
    # Crash here: checkpoints collected, log prefix not yet discarded.

    actions = heal(storage)

    assert [a["action"] for a in actions] == ["rolled_forward"]
    assert actions[0]["log_entries_collected"] == 3
    assert [c.ckpt_id for c in storage.checkpoints] == [anchor.ckpt_id]
    assert storage.log.retained_stable_entries == 0
    assert storage.log.stable_length == 3  # absolute indices preserved


def test_heal_operator_rollback_does_not_queue_represent():
    """Operator rollbacks preserve orphans under their own key; the
    crawler must not feed them back through the receive path."""
    storage = StableStorage(0)
    anchor = storage.checkpoints.take(1.0, {"uid": "a"}, 0)
    for i in range(3):
        storage.log.append(i, 1, f"m{i}")
    storage.log.flush()
    storage.checkpoints.take(2.0, {"uid": "b"}, 3)
    intent = storage.begin_intent(
        OPERATOR_ROLLBACK, anchor_ckpt_id=anchor.ckpt_id, truncate_at=1
    )
    storage.advance_intent(intent, "orphans_preserved")

    actions = heal(storage)

    assert [a["action"] for a in actions] == ["rolled_forward"]
    assert storage.get(RECOVERED_ENTRIES_KEY) is None
    assert [c.ckpt_id for c in storage.checkpoints] == [anchor.ckpt_id]
    assert [e.index for e in storage.log.stable_entries()] == [0]


def test_heal_aborts_when_anchor_is_gone():
    storage = StableStorage(0)
    storage.checkpoints.take(1.0, {"uid": "a"}, 0)
    intent = storage.begin_intent(ROLLBACK, anchor_ckpt_id=999, truncate_at=0)
    storage.advance_intent(intent, "log_flushed")

    actions = heal(storage)

    assert actions[0]["action"] == "aborted"
    assert actions[0]["reason"] == "anchor-checkpoint-missing"
    assert storage.active_intent() is None
    assert len(storage.checkpoints) == 1


def test_heal_log_keeps_a_bounded_tail():
    storage = StableStorage(0)
    for _ in range(intents.HEAL_LOG_TAIL + 4):
        storage.begin_intent(FLUSH)  # leave it active: crashed image
        storage._active_intent.step = "log_flushed"
        heal(storage)
    assert len(storage.get(HEAL_LOG_KEY)) == intents.HEAL_LOG_TAIL


# ---------------------------------------------------------------------------
# FileStableStorage crash-point matrix: kill each scripted transition at
# every enumerated point, reload, heal, compare against references.
# ---------------------------------------------------------------------------
def _file_storage(tmp_path, name):
    from repro.live.storage import FileStableStorage

    return FileStableStorage(0, str(tmp_path / f"{name}.pickle"))


def _prepopulate(storage):
    """A believable mid-run image: two checkpoints, four stable entries."""
    anchor = storage.checkpoints.take(1.0, {"uid": "a"}, 0)
    for i in range(4):
        storage.log.append(i, 1, f"m{i}")
    storage.log.flush()
    later = storage.checkpoints.take(2.0, {"uid": "b"}, 4)
    storage.put("stable_own", ("v0", 4))
    return anchor, later


def _drive_checkpoint(storage, anchor, later, fresh=True):
    if fresh:
        storage.log.append(9, 1, "fresh")
    intent = storage.begin_intent(CHECKPOINT)
    storage.advance_intent(intent, "log_flushed")
    storage.log.flush()
    storage.commit_intent(intent)
    storage.checkpoints.take(3.0, {"uid": "c"}, 5)


def _drive_flush(storage, anchor, later, fresh=True):
    if fresh:
        storage.log.append(9, 1, "fresh")
    intent = storage.begin_intent(FLUSH)
    storage.advance_intent(intent, "log_flushed")
    storage.log.flush()
    storage.commit_intent(intent)
    storage.put("stable_own", ("v0", 5))


def _drive_restart(storage, anchor, later, fresh=True):
    intent = storage.begin_intent(RESTART, token=(0, 0, 4))
    storage.advance_intent(intent, "token_logged")
    storage.log_token(("tok", 0, 0, 4), dedupe_key=(0, 0))
    storage.commit_intent(intent)
    storage.checkpoints.take(3.0, {"uid": "c"}, 4)


def _drive_rollback(storage, anchor, later, fresh=True):
    if fresh:
        storage.log.append(9, 1, "fresh")
    intent = storage.begin_intent(
        ROLLBACK,
        token=(1, 0, 2),
        anchor_ckpt_id=anchor.ckpt_id,
        truncate_at=2,
        stable_own=("v1", 0),
    )
    storage.advance_intent(intent, "log_flushed")
    storage.log.flush()
    storage.advance_intent(intent, "checkpoints_discarded")
    storage.checkpoints.discard_after(anchor)
    storage.advance_intent(intent, "log_truncated")
    storage.log.truncate(2)
    storage.commit_intent(intent)
    storage.put("stable_own", ("v1", 0))


def _drive_compaction(storage, anchor, later, fresh=True):
    intent = storage.begin_intent(
        COMPACTION,
        anchor_ckpt_id=later.ckpt_id,
        anchor_position=later.log_position,
    )
    storage.advance_intent(intent, "checkpoints_collected")
    storage.checkpoints.garbage_collect_before(later.ckpt_id)
    storage.commit_intent(intent)
    storage.log.discard_prefix(later.log_position)


_DRIVERS = {
    CHECKPOINT: _drive_checkpoint,
    FLUSH: _drive_flush,
    RESTART: _drive_restart,
    ROLLBACK: _drive_rollback,
    COMPACTION: _drive_compaction,
}


def _image(storage):
    """The durable facts the transition is about (counters excluded)."""
    log = storage.log
    start = log.stable_length - log.retained_stable_entries
    return {
        "ckpt_ids": [c.ckpt_id for c in storage.checkpoints],
        "log": [e.index for e in log.stable_entries(start)],
        "stable_own": storage.get("stable_own"),
        "tokens": storage.tokens,
    }


@pytest.mark.parametrize("point", LIVE_CRASH_POINTS)
def test_crash_point_heals_to_a_provable_state(tmp_path, point):
    kind = point.split(":")[0]
    driver = _DRIVERS[kind]

    # Reference: the same transition, completed without interference.
    ref = _file_storage(tmp_path, "ref")
    driver(ref, *_prepopulate(ref))
    complete = _image(ref)

    victim = _file_storage(tmp_path, "victim")
    anchor, later = _prepopulate(victim)
    before = _image(victim)
    victim.arm_crash_point(point, downtime=0.5)
    with pytest.raises(CrashPointReached) as exc:
        driver(victim, anchor, later)
    assert exc.value.point == point

    # SIGKILL: reload from the file alone, then heal.
    from repro.live.storage import FileStableStorage

    reborn = FileStableStorage(0, victim.path)
    actions = heal(reborn)
    healed = _image(reborn)

    assert reborn.active_intent() is None
    if point.endswith(":committed"):
        # The transition fully landed before the kill; nothing to heal.
        assert actions == []
        assert healed == complete
    elif kind in intents.ROLL_FORWARD_KINDS:
        assert [a["action"] for a in actions] == ["rolled_forward"]
        assert healed == complete
        if kind == ROLLBACK and point != "rollback:log_truncated":
            preserved = reborn.get(RECOVERED_ENTRIES_KEY)
            assert [e.index for e in preserved] == [2, 3, 4]
    else:
        # Abort kinds: the partial prefix is harmless; re-running the
        # transition reaches the reference image (restart's token relog
        # is absorbed by the (origin, version) dedupe).
        assert [a["action"] for a in actions] == ["rolled_back"]
        assert healed["ckpt_ids"] == before["ckpt_ids"]
        # The crash landed *after* the prefix persisted (file-backed
        # points fire at persists), so the retry skips the fresh append.
        driver(reborn, anchor, later, fresh=False)
        assert _image(reborn) == complete


def test_intent_round_trips_through_the_file(tmp_path):
    from repro.live.storage import FileStableStorage

    storage = _file_storage(tmp_path, "rt")
    _prepopulate(storage)
    intent = storage.begin_intent(ROLLBACK, anchor_ckpt_id=0, truncate_at=2)
    storage.advance_intent(intent, "log_flushed")
    storage.put("marker", 1)  # any barrier persists the active record

    reborn = FileStableStorage(0, storage.path)
    active = reborn.active_intent()
    assert active is not None
    assert (active.kind, active.step) == (ROLLBACK, "log_flushed")
    assert active.payload["anchor_ckpt_id"] == 0
    assert reborn.intent_audit() == []
