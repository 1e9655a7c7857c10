"""Write-ahead intent journal + startup recovery crawler tests.

Protocol transitions are single records (``StableStorage.atomic``); the
journal is left to operator rollback, the one durable transition that
spans several records and a file beside the image.  Covered here: the
journal lifecycle on the in-memory storage, the crawler's roll-forward
and abort paths, and the intent's round trip through the record log.
The rewind's crash windows are fired in ``tests/live/test_rollback.py``.
"""

import pytest

from repro.storage import intents
from repro.storage.checkpoint import SEND_LOG
from repro.storage.intents import (
    AUDIT_TAIL,
    BEGUN,
    HEAL_LOG_KEY,
    INTENT_STEPS,
    OPERATOR_ROLLBACK,
    crash_points,
    heal,
)
from repro.storage.stable import StableStorage

STEPS = INTENT_STEPS[OPERATOR_ROLLBACK]


# ---------------------------------------------------------------------------
# Journal lifecycle (in-memory storage)
# ---------------------------------------------------------------------------
def test_begin_advance_commit_lifecycle():
    storage = StableStorage(0)
    intent = storage.begin_intent(OPERATOR_ROLLBACK, note="x")
    assert intent is not None
    assert intent.step == BEGUN
    assert intent.payload == {"note": "x"}
    assert storage.active_intent() is intent

    storage.advance_intent(intent, STEPS[0])
    assert intent.step == STEPS[0]

    storage.commit_intent(intent)
    assert intent.status == "committed"
    assert storage.active_intent() is None
    assert storage.intent_audit()[-1] is intent
    assert storage.intents_begun == 1
    assert storage.intents_committed == 1


def test_abort_records_reason():
    storage = StableStorage(0)
    intent = storage.begin_intent(OPERATOR_ROLLBACK)
    storage.abort_intent(intent, reason="healed")
    assert intent.status == "aborted"
    assert intent.payload["abort_reason"] == "healed"
    assert storage.active_intent() is None
    assert storage.intents_aborted == 1


def test_nested_begin_returns_none_and_tolerant_ops():
    storage = StableStorage(0)
    outer = storage.begin_intent(OPERATOR_ROLLBACK)
    inner = storage.begin_intent(OPERATOR_ROLLBACK)
    assert inner is None
    # None-tolerant: such a call site stays unconditional.
    storage.advance_intent(inner, STEPS[0])
    storage.commit_intent(inner)
    storage.abort_intent(inner)
    assert storage.active_intent() is outer
    storage.commit_intent(outer)
    assert storage.active_intent() is None


def test_audit_tail_is_bounded():
    storage = StableStorage(0)
    for i in range(AUDIT_TAIL + 5):
        intent = storage.begin_intent(OPERATOR_ROLLBACK, seq=i)
        storage.commit_intent(intent)
    audit = storage.intent_audit()
    assert len(audit) == AUDIT_TAIL
    assert audit[-1].payload["seq"] == AUDIT_TAIL + 4
    # Ids keep counting even though the tail is bounded.
    assert storage._intent_next_id == AUDIT_TAIL + 5


def test_crash_point_enumeration():
    # Operator rollback is the only journaled transition.
    assert crash_points() == crash_points((OPERATOR_ROLLBACK,)) == (
        "operator-rollback:orphans_preserved",
        "operator-rollback:checkpoints_discarded",
        "operator-rollback:log_truncated",
    )


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


def _storage_with_rewind_in_flight(step):
    """Image of an operator rollback crashed right after reaching
    ``step`` (the rewind preserved its orphans before the first one)."""
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
        OPERATOR_ROLLBACK,
        anchor_ckpt_id=anchor.ckpt_id,
        truncate_at=2,
        stable_own=("v", 7),
    )
    for s in STEPS[: STEPS.index(step) + 1]:
        storage.advance_intent(intent, s)
        if s == "checkpoints_discarded":
            storage.checkpoints.discard_after(anchor)
        elif s == "log_truncated":
            storage.log.truncate(2)
    return storage, anchor, later


@pytest.mark.parametrize("step", STEPS)
def test_heal_rolls_rollback_forward(step):
    storage, anchor, _later = _storage_with_rewind_in_flight(step)

    actions = heal(storage)

    assert [a["action"] for a in actions] == ["rolled_forward"]
    assert actions[0]["kind"] == OPERATOR_ROLLBACK
    assert storage.active_intent() is None
    assert storage.intent_audit()[-1].status == "committed"
    # Target state reached no matter where the crash landed.
    assert [c.ckpt_id for c in storage.checkpoints] == [anchor.ckpt_id]
    assert [e.index for e in storage.log.stable_entries()] == [0, 1]
    assert storage.sends == ["s0"]
    assert storage.get("stable_own") == ("v", 7)
    # Idempotent: a second heal finds a clean image.
    assert heal(storage) == []


def test_heal_aborts_when_anchor_is_gone():
    storage = StableStorage(0)
    storage.checkpoints.take(1.0, {"uid": "a"}, 0)
    intent = storage.begin_intent(
        OPERATOR_ROLLBACK, anchor_ckpt_id=999, truncate_at=0
    )
    storage.advance_intent(intent, STEPS[0])

    actions = heal(storage)

    assert actions[0]["action"] == "aborted"
    assert actions[0]["reason"] == "anchor-checkpoint-missing"
    assert storage.active_intent() is None
    assert len(storage.checkpoints) == 1


def test_heal_retires_an_intent_of_a_protocol_transition():
    """An image written while checkpoints, flushes, restarts, rollbacks
    and GC sweeps carried intents can hold one of those: its partial
    prefix is re-derived by the protocol's restart, so heal retires the
    intent and changes nothing else."""
    storage = StableStorage(0)
    anchor = storage.checkpoints.take(1.0, {"uid": "a"}, 0)
    storage.checkpoints.take(2.0, {"uid": "b"}, 0)
    intent = storage.begin_intent(
        "compaction", anchor_ckpt_id=anchor.ckpt_id, anchor_position=0
    )
    storage.advance_intent(intent, "checkpoints_collected")

    actions = heal(storage)

    assert [(a["action"], a["reason"]) for a in actions] == [
        ("aborted", "unknown-kind")
    ]
    assert storage.active_intent() is None
    assert len(storage.checkpoints) == 2


def test_heal_log_keeps_a_bounded_tail():
    storage = StableStorage(0)
    for _ in range(intents.HEAL_LOG_TAIL + 4):
        storage.begin_intent(OPERATOR_ROLLBACK)  # active: crashed image
        storage._active_intent.step = STEPS[0]
        heal(storage)
    assert len(storage.get(HEAL_LOG_KEY)) == intents.HEAL_LOG_TAIL


def test_intent_round_trips_through_the_file(tmp_path):
    from repro.live.storage import FileStableStorage

    storage = FileStableStorage(0, str(tmp_path / "rt.pickle"))
    storage.checkpoints.take(1.0, {"uid": "a"}, 0)
    intent = storage.begin_intent(
        OPERATOR_ROLLBACK, anchor_ckpt_id=0, truncate_at=2
    )
    storage.advance_intent(intent, STEPS[0])
    storage.put("marker", 1)  # any barrier persists the active record

    reborn = FileStableStorage(0, storage.path)
    active = reborn.active_intent()
    assert active is not None
    assert (active.kind, active.step) == (OPERATOR_ROLLBACK, STEPS[0])
    assert active.payload["anchor_ckpt_id"] == 0
    assert reborn.intent_audit() == []
