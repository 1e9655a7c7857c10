"""Invariant oracles for stress runs.

:func:`check_case` grades one finished stress run against every safety
property the repo knows how to check, and returns the full list of
violations as strings (empty = the case passed).  It composes the
existing :mod:`repro.analysis` oracles rather than re-deriving anything:

- :func:`~repro.analysis.consistency.check_recovery` -- no surviving
  orphan, minimal rollback, maximum recoverable state, at most one
  rollback per failure, sound obsolete detection (Theorems 2/3, Lemma 4);
- :func:`~repro.analysis.theorem.check_theorem1` -- FTVC comparison
  agrees with the reconstructed happen-before on every ordered pair of
  useful states (``theorem_max_states`` exists for callers that want
  fewer; no profile's schedules reach its default);
- :func:`~repro.analysis.metrics.measure_overhead` -- the history
  structure stays within the paper's O(n.f) bound;
- output-commit safety -- when the Section 6.5 extension is on, no
  output committed to the environment may originate in a state that the
  ground truth later classifies as lost or orphaned;
- one own clock entry per state -- when stability gossip is on, no two
  states of a process that sent a message or emitted an output carry
  the same own entry, the property that makes stale frontier reports
  sound.

The strings are shrinker-friendly: a case "still fails" when it produces
*any* violation, so shrinking never needs to parse them.
"""

from __future__ import annotations

from repro.analysis.causality import GroundTruth, build_ground_truth
from repro.analysis.consistency import check_recovery
from repro.analysis.metrics import measure_overhead
from repro.analysis.theorem import MAX_STATES, check_theorem1
from repro.harness.runner import ExperimentResult
from repro.runtime.trace import EventKind
from repro.stress.generate import StressCase


def check_case(
    result: ExperimentResult,
    case: StressCase,
    *,
    theorem_max_states: int = MAX_STATES,
) -> list[str]:
    """Run every oracle against ``result``; return all violations."""
    violations: list[str] = []
    # One reconstruction, shared by every oracle that needs it.
    gt = build_ground_truth(result.trace, result.network.n)

    verdict = check_recovery(result, ground_truth=gt)
    violations.extend(f"recovery: {v}" for v in verdict.violations)

    theorem = check_theorem1(
        result, max_states=theorem_max_states, ground_truth=gt
    )
    violations.extend(f"theorem1: {v}" for v in theorem.violations)
    if theorem.untracked_useful:
        violations.append(
            f"theorem1: {theorem.untracked_useful} useful states have no "
            "recorded clock"
        )

    overhead = measure_overhead(result)
    if not overhead.history_within_bound:
        violations.append(
            f"overhead: history size {overhead.history_records_max} exceeds "
            f"O(n.f) bound {overhead.history_bound}"
        )

    if case.commit_outputs:
        violations.extend(_check_output_commit(result, gt))
    if result.spec.config.gossip_interval is not None:
        violations.extend(_check_own_entries_unique(result, gt))

    return violations


def _check_own_entries_unique(
    result: ExperimentResult, gt: GroundTruth
) -> list[str]:
    """No two states of one process that sent a message or emitted an
    output share their own clock entry, which is what frontier reports
    name them by.  (Only such states are ever named outside their own
    process, so a state that sent and emitted nothing is not checked.)"""
    seen = {uid for uid, _dst in gt.send_info.values()}
    seen.update(
        tuple(ev["uid"]) for ev in result.trace.events(EventKind.OUTPUT)
    )
    bad: list[str] = []
    for protocol in result.protocols:
        owner: dict = {}
        for uid, clock in protocol.clock_by_uid.items():
            if uid not in seen:
                continue
            entry = clock[protocol.pid]
            first = owner.setdefault(entry, uid)
            if first != uid:
                bad.append(
                    f"clock: pid {protocol.pid} states {first} and {uid} "
                    f"share own entry {tuple(entry)}"
                )
    return bad


def _check_output_commit(
    result: ExperimentResult, gt: GroundTruth
) -> list[str]:
    """Committed outputs must never originate in a lost/orphan state.

    The ground truth is reconstructed *after* the run, with full
    knowledge of every failure; the protocol had to make the same call
    online.  Any committed output whose source state the ground truth
    condemns is an unrecoverable leak to the environment.
    """
    condemned = gt.condemned
    bad: list[str] = []
    for ev in result.trace.events(EventKind.OUTPUT):
        if not ev.get("committed"):
            continue
        uid = tuple(ev["uid"])
        if uid in condemned:
            bad.append(
                f"output-commit: pid {ev.pid} committed output "
                f"{ev.get('value')!r} from condemned state {uid} at "
                f"t={ev.time:.3f}"
            )
    return bad
