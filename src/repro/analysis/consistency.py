"""The recovery-correctness oracle.

:func:`check_recovery` grades a finished run against the ground truth of
:mod:`repro.analysis.causality`:

1. **No surviving orphan** -- after recovery quiesces, no state on a
   surviving chain causally depends on a lost state (the safety property of
   Theorem 2).
2. **Minimal rollback** -- every state a protocol undid by rollback really
   was an orphan (no needless rollback; together with check 3 this is the
   paper's "recovers the maximum recoverable state").
3. **Maximum recoverable state** -- the surviving states are exactly the
   useful ones: ``states - lost - orphans``.
4. **At most one rollback per failure** per process (Table 1 column 3).
5. **Exact obsolete detection** -- every message discarded as obsolete was
   really sent by a lost or orphan state (Lemma 4 soundness).
6. **No obsolete delivery survives** -- a message sent by a lost/orphan
   state never contributes a surviving state.

Checks 2-4 are *protocol* properties; baselines that do not promise them
(e.g. Strom-Yemini's multiple rollbacks) are graded with those checks
disabled, and the measured violation count becomes a Table 1 data point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.causality import GroundTruth, build_ground_truth

if TYPE_CHECKING:
    from repro.harness.runner import ExperimentResult


@dataclass
class RecoveryVerdict:
    """Outcome of the oracle; ``ok`` iff no enabled check failed."""

    ok: bool
    violations: list[str]
    ground_truth: GroundTruth
    orphans: set[tuple[int, int, int]]
    checks_run: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_recovery(
    result: ExperimentResult,
    *,
    expect_minimal_rollback: bool = True,
    expect_single_rollback_per_failure: bool = True,
    expect_maximum_recovery: bool = True,
    max_reported: int = 5,
    ground_truth: GroundTruth | None = None,
) -> RecoveryVerdict:
    """Grade ``result``; see module docstring for the checks.

    Accepts anything result-shaped: an
    :class:`~repro.harness.runner.ExperimentResult` or a scripted
    :class:`~repro.harness.scenarios.ScenarioResult` (it only needs
    ``trace``, ``protocols`` and the network size).
    """
    gt = ground_truth or build_ground_truth(result.trace, result.network.n)
    orphans = gt.orphans()
    surviving = gt.surviving_states
    violations: list[str] = []
    checks = ["no_surviving_orphan", "obsolete_discards_sound",
              "no_obsolete_delivery_survives"]

    def report(label: str, bad: set) -> None:
        sample = sorted(bad)[:max_reported]
        violations.append(f"{label}: {len(bad)} states, e.g. {sample}")

    surviving_orphans = orphans & surviving
    if surviving_orphans:
        report("surviving orphan states", surviving_orphans)
    surviving_lost = gt.lost & surviving
    if surviving_lost:
        report("lost states still on a surviving chain", surviving_lost)

    if expect_minimal_rollback:
        checks.append("minimal_rollback")
        needless = gt.rolled_back - orphans
        if needless:
            report("needlessly rolled back (non-orphan) states", needless)

    if expect_maximum_recovery:
        checks.append("maximum_recoverable_state")
        missing = gt.useful() - surviving
        if missing:
            report("useful states not recovered", missing)

    if expect_single_rollback_per_failure:
        checks.append("single_rollback_per_failure")
        for protocol in result.protocols:
            worst = protocol.stats.max_rollbacks_for_single_failure
            if worst > 1:
                violations.append(
                    f"P{protocol.pid} rolled back {worst} times for one "
                    f"failure: {protocol.stats.rollbacks_per_failure}"
                )

    # Discard soundness: a message rejected as obsolete must come from a
    # state that did not survive (lost, orphan, or undone by the
    # protocol's own rollbacks -- coordinated checkpointing legitimately
    # discards messages from rolled-back non-orphan states).
    wrong_discards = {
        msg_id
        for msg_id in gt.obsolete_discards
        if msg_id in gt.send_info
        and gt.send_info[msg_id][0] in surviving
    }
    if wrong_discards:
        violations.append(
            f"messages discarded as obsolete but sent by surviving states: "
            f"{sorted(wrong_discards)[:max_reported]}"
        )

    # No obsolete delivery survives.
    bad_sender = gt.condemned
    for msg_id, (sender_uid, _dst) in gt.send_info.items():
        if sender_uid not in bad_sender:
            continue
        survived = gt.delivery_states.get(msg_id, set()) & surviving
        if survived:
            violations.append(
                f"obsolete message {msg_id} (sender {sender_uid}) created "
                f"surviving states {sorted(survived)[:max_reported]}"
            )

    return RecoveryVerdict(
        ok=not violations,
        violations=violations,
        ground_truth=gt,
        orphans=orphans,
        checks_run=checks,
    )
