"""Write-ahead intents: the crash-window audit of operator rollback.

``FileStableStorage`` writes each barrier as one checksummed record --
valid or ignored -- and every protocol transition (checkpoint, log flush,
restart, rollback, GC sweep) runs inside ``StableStorage.atomic()``, so
it lands as one record or not at all.  The one durable transition that
still spans several artifacts is ``python -m repro rollback``: it
rewrites the image *and* appends to ``rollback_audit.json`` beside it,
so it is written as ordered steps under an intent:

=====================  ============================================  ======
intent kind            steps (durable persists, in order)            heal
=====================  ============================================  ======
``operator-rollback``  ``orphans_preserved``,
                       ``checkpoints_discarded``,
                       ``log_truncated`` -> commit rides the
                       audit-record write                            forward
=====================  ============================================  ======

The journal costs **zero extra fsyncs**: ``begin_intent`` is memory-only
and the record rides the next step's own persist (every storage record
restates the active intent), ``advance_intent`` declares the upcoming
step *before* its mutation so that mutation's persist records it, and
``commit_intent`` clears the active record in memory so the transition's
final mutation makes "committed" durable.

:func:`heal`, run before any other startup work, rolls an interrupted
rewind **forward**: the payload recorded at ``begin_intent`` names the
complete target state (anchor checkpoint, truncation boundary, restored
clock entry), so the remaining steps are re-applied idempotently.

Crash points are named ``"<kind>:<step>"``;
``FileStableStorage.arm_crash_point`` arms one, and it raises
:class:`CrashPointReached` right after the persist that leaves that
partial image on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.stable import StableStorage

OPERATOR_ROLLBACK = "operator-rollback"

#: The step every intent starts in before its first ``advance_intent``.
BEGUN = "begun"

#: Ordered durable steps per transition kind.  The *last* step's persist
#: doubles as the commit barrier (see module docstring).
INTENT_STEPS: dict[str, tuple[str, ...]] = {
    OPERATOR_ROLLBACK: (
        "orphans_preserved",
        "checkpoints_discarded",
        "log_truncated",
    ),
}

#: Durable key of the healer's own audit tail.
HEAL_LOG_KEY = "intent_heal_log"

#: How many completed/aborted intents the audit tail retains.
AUDIT_TAIL = 8
#: How many heal actions the durable heal log retains.
HEAL_LOG_TAIL = 16


def crash_points(kinds: tuple[str, ...] | None = None) -> tuple[str, ...]:
    """Enumerate every crash point as ``"<kind>:<step>"`` names."""
    return tuple(
        f"{kind}:{step}"
        for kind, steps in INTENT_STEPS.items()
        if kinds is None or kind in kinds
        for step in steps
    )


class CrashPointReached(Exception):
    """Raised when an armed crash point fires."""

    def __init__(self, point: str) -> None:
        super().__init__(point)
        self.point = point


@dataclass
class IntentRecord:
    """One in-flight (or retired) multi-step transition."""

    intent_id: int
    kind: str
    step: str = BEGUN
    payload: dict[str, Any] = field(default_factory=dict)
    status: str = "active"

    def describe(self) -> str:
        return f"{self.kind}#{self.intent_id}@{self.step}[{self.status}]"


# ---------------------------------------------------------------------------
# The startup recovery crawler
# ---------------------------------------------------------------------------
def heal(storage: "StableStorage") -> list[dict[str, Any]]:
    """Detect and repair any in-flight intent left by a crash.

    Called on a freshly (re)loaded storage image before anything reads
    it.  Returns the list of heal actions taken (empty on a clean image
    -- the overwhelmingly common case, which performs **zero** writes so
    golden traces are unaffected).  Every action is also appended to the
    durable :data:`HEAL_LOG_KEY` audit tail; that final ``put`` is the
    barrier that makes the heal itself durable.
    """
    actions: list[dict[str, Any]] = []
    intent = storage.active_intent()
    while intent is not None:
        actions.append(_roll_forward(storage, intent))
        remaining = storage.active_intent()
        if remaining is intent:  # defensive: a heal must retire its intent
            storage.abort_intent(intent)
            break
        intent = remaining
    if actions:
        tail = list(storage.get(HEAL_LOG_KEY) or [])
        tail.extend(actions)
        storage.put(HEAL_LOG_KEY, tail[-HEAL_LOG_TAIL:])
    return actions


def _roll_forward(
    storage: "StableStorage", intent: IntentRecord
) -> dict[str, Any]:
    """Re-apply the remaining steps of an interrupted rewind."""
    action = {
        "intent_id": intent.intent_id,
        "kind": intent.kind,
        "step": intent.step,
    }
    payload = intent.payload
    anchor_id = payload.get("anchor_ckpt_id")
    anchor = next(
        (c for c in storage.checkpoints if c.ckpt_id == anchor_id), None
    )
    reason = ""
    if intent.kind not in INTENT_STEPS:
        # An image written while protocol transitions still carried
        # intents: its partial prefix is one the protocol re-derives on
        # restart, so the intent is only retired.
        reason = "unknown-kind"
    elif anchor is None:
        # The anchor itself is gone -- only possible if the image predates
        # the intent (impossible by construction) or was tampered with.
        reason = "anchor-checkpoint-missing"
    if reason:
        # Nothing provable to re-apply: abort and surface it in the log.
        action["action"] = "aborted"
        action["reason"] = reason
        storage.abort_intent(intent, reason=reason)
        return action

    action["action"] = "rolled_forward"
    action["checkpoints_discarded"] = storage.checkpoints.discard_after(anchor)
    # The sends of the discarded checkpoints go with them (the rewind
    # preserved them in its orphan area first).
    storage.send_cut_to(anchor)
    truncate_at = payload["truncate_at"]
    action["log_entries_truncated"] = (
        storage.log.truncate(truncate_at)
        if storage.log.stable_length > truncate_at
        else 0
    )
    stable_own = payload.get("stable_own")
    if stable_own is not None:
        storage.put("stable_own", stable_own)
    storage.commit_intent(intent)
    return action
