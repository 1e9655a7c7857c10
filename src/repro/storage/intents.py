"""Write-ahead intents: crash-window audit for multi-step durable transitions.

``FileStableStorage`` writes each barrier as one checksummed record --
valid or ignored -- so a single ``put`` or ``flush`` can never be
half-done.  Crash windows exist only where one *logical* transition
spans **multiple** persists -- a SIGKILL between them leaves a partial
image that is internally valid but logically inconsistent.  The
inventory of such transitions (see ``docs/DURABILITY.md``):

=====================  ============================================  ======
intent kind            steps (durable persists, in order)            heal
=====================  ============================================  ======
``checkpoint``         ``log_flushed`` -> commit rides the           abort
                       checkpoint write itself
``flush``              ``log_flushed`` -> commit rides the
                       ``stable_own`` write (Damani-Garg keeps the
                       durable clock frontier in lockstep with the
                       stable log)                                   abort
``restart``            ``token_logged`` -> commit rides the
                       restart checkpoint                            abort
``rollback``           ``log_flushed``, ``checkpoints_discarded``,
                       ``log_truncated`` -> commit rides the
                       ``stable_own`` write                          forward
``compaction``         ``checkpoints_collected`` -> commit rides
                       the log prefix discard                        forward
``operator-rollback``  ``orphans_preserved``,
                       ``checkpoints_discarded``,
                       ``log_truncated`` -> commit rides the
                       audit-record write                            forward
=====================  ============================================  ======

The journal costs **zero extra fsyncs**: ``begin_intent`` is memory-only
and the record rides the next step's own persist (every storage record
restates the active intent), ``advance_intent`` declares the upcoming
step *before* its mutation so that mutation's persist records it, and
``commit_intent``
clears the active record in memory so the transition's final mutation
makes "committed" durable.

Heal policy, applied by :func:`heal` before any other startup work:

- **Roll back** (``checkpoint``, ``flush``, ``restart``): the partial
  prefix of the transition is harmless on its own -- a flushed log with
  no checkpoint is just an early flush; a logged token with no restart
  checkpoint is re-derived idempotently (the token log dedupes by
  ``(origin, version)``).  Healing simply aborts the record.
- **Roll forward** (``rollback``, ``compaction``, ``operator-rollback``):
  the payload recorded at ``begin_intent`` names the complete target
  state (anchor checkpoint, truncation boundary, restored clock entry),
  so the remaining steps are re-applied idempotently.  Log entries
  dropped by a healed rollback are *preserved*, never deleted: they are
  copied under :data:`RECOVERED_ENTRIES_KEY` and re-presented to the
  protocol as ordinary (possibly duplicate) network messages, which
  receiver-side dedup absorbs.

Crash points are named ``"<kind>:<step>"`` plus a live-only
``"<kind>:committed"`` variant (an in-memory engine cannot produce the
committed-on-disk partial image).  :meth:`StableStorage.arm_crash_point`
arms one; the simulator turns the resulting :class:`CrashPointReached`
into a scheduled crash + restart, the live node SIGKILLs itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.stable import StableStorage

# ---------------------------------------------------------------------------
# Intent vocabulary
# ---------------------------------------------------------------------------
CHECKPOINT = "checkpoint"
FLUSH = "flush"
RESTART = "restart"
ROLLBACK = "rollback"
COMPACTION = "compaction"
OPERATOR_ROLLBACK = "operator-rollback"

#: The step every intent starts in before its first ``advance_intent``.
BEGUN = "begun"

#: Ordered durable steps per transition kind.  The *last* step's persist
#: doubles as the commit barrier (see module docstring).
INTENT_STEPS: dict[str, tuple[str, ...]] = {
    CHECKPOINT: ("log_flushed",),
    FLUSH: ("log_flushed",),
    RESTART: ("token_logged",),
    ROLLBACK: ("log_flushed", "checkpoints_discarded", "log_truncated"),
    COMPACTION: ("checkpoints_collected",),
    OPERATOR_ROLLBACK: (
        "orphans_preserved",
        "checkpoints_discarded",
        "log_truncated",
    ),
}

#: Kinds whose payload names the complete target state: heal re-applies
#: the remaining steps.  Everything else is aborted (prefix harmless).
ROLL_FORWARD_KINDS = frozenset({ROLLBACK, COMPACTION, OPERATOR_ROLLBACK})

#: Durable keys owned by the healer.  Never deleted, only emptied after
#: their contents have been handed back to the protocol / operator.
RECOVERED_ENTRIES_KEY = "intent_recovered_entries"
HEAL_LOG_KEY = "intent_heal_log"

#: How many completed/aborted intents the audit tail retains.
AUDIT_TAIL = 8
#: How many heal actions the durable heal log retains.
HEAL_LOG_TAIL = 16


def crash_points(
    kinds: tuple[str, ...] | None = None, *, include_committed: bool = False
) -> tuple[str, ...]:
    """Enumerate every crash point as ``"<kind>:<step>"`` names."""
    points: list[str] = []
    for kind, steps in INTENT_STEPS.items():
        if kinds is not None and kind not in kinds:
            continue
        points.extend(f"{kind}:{step}" for step in steps)
        if include_committed:
            points.append(f"{kind}:committed")
    return tuple(points)


_PROTOCOL_KINDS = (CHECKPOINT, FLUSH, RESTART, ROLLBACK, COMPACTION)

#: Points the simulator can hit (fired in-memory when the step would
#: persist).  ``:committed`` variants are excluded: firing after commit
#: in memory would model an image that cannot exist on disk.
SIM_CRASH_POINTS = crash_points(_PROTOCOL_KINDS)

#: Points the live engine can hit -- fired from inside ``_persist`` after
#: the record's fsync, so ``:committed`` kills land on a real
#: committed-on-disk image.
LIVE_CRASH_POINTS = crash_points(_PROTOCOL_KINDS, include_committed=True)


class CrashPointReached(Exception):
    """Raised (default action) when an armed crash point fires."""

    def __init__(self, point: str, downtime: float = 1.0) -> None:
        super().__init__(point)
        self.point = point
        self.downtime = downtime


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
        if intent.kind in ROLL_FORWARD_KINDS:
            action = _roll_forward(storage, intent)
        else:
            action = _roll_back(storage, intent)
        actions.append(action)
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


def _base_action(intent: IntentRecord) -> dict[str, Any]:
    return {
        "intent_id": intent.intent_id,
        "kind": intent.kind,
        "step": intent.step,
    }


def _roll_back(storage: "StableStorage", intent: IntentRecord) -> dict[str, Any]:
    """Abort a harmless-prefix transition (checkpoint / flush / restart)."""
    action = _base_action(intent)
    action["action"] = "rolled_back"
    storage.abort_intent(intent, reason="healed")
    return action


def _roll_forward(
    storage: "StableStorage", intent: IntentRecord
) -> dict[str, Any]:
    """Re-apply the remaining steps of a payload-complete transition."""
    action = _base_action(intent)
    payload = intent.payload
    if intent.kind == COMPACTION:
        action["action"] = "rolled_forward"
        action["checkpoints_collected"] = storage.checkpoints.garbage_collect_before(
            payload["anchor_ckpt_id"]
        )
        action["log_entries_collected"] = storage.log.discard_prefix(
            payload["anchor_position"]
        )
        storage.commit_intent(intent)
        return action

    # rollback / operator-rollback: restore the anchored frontier.
    anchor_id = payload.get("anchor_ckpt_id")
    anchor = next(
        (c for c in storage.checkpoints if c.ckpt_id == anchor_id), None
    )
    if anchor is None:
        # The anchor itself is gone -- only possible if the image predates
        # the intent (impossible by construction) or was tampered with.
        # Nothing provable to re-apply: abort and surface it in the log.
        action["action"] = "aborted"
        action["reason"] = "anchor-checkpoint-missing"
        storage.abort_intent(intent, reason="anchor-checkpoint-missing")
        return action

    action["action"] = "rolled_forward"
    action["checkpoints_discarded"] = storage.checkpoints.discard_after(anchor)
    # The sends of the discarded checkpoints go with them, as restoring
    # the anchor would cut them (an operator rollback has preserved them).
    storage.send_cut_to(anchor)
    truncate_at = payload["truncate_at"]
    if storage.log.stable_length > truncate_at:
        leftovers = list(storage.log.stable_entries(truncate_at))
        if intent.kind == ROLLBACK and leftovers:
            # Preserve, never delete: a protocol rollback re-presents
            # these to the receiver path after restart (duplicates are
            # absorbed by delivery dedup).  Operator rollbacks preserve
            # their orphans separately and *must not* re-present them.
            pending = list(storage.get(RECOVERED_ENTRIES_KEY) or [])
            seen = {entry.index for entry in pending}
            pending.extend(e for e in leftovers if e.index not in seen)
            storage.put(RECOVERED_ENTRIES_KEY, pending)
        action["log_entries_truncated"] = storage.log.truncate(truncate_at)
        action["log_entries_preserved"] = len(leftovers)
    else:
        action["log_entries_truncated"] = 0
        action["log_entries_preserved"] = 0
    stable_own = payload.get("stable_own")
    if stable_own is not None:
        storage.put("stable_own", stable_own)
    storage.commit_intent(intent)
    return action
