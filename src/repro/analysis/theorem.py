"""Empirical verification of Theorem 1.

Theorem 1 (paper Section 4.1): for *useful* states ``s``, ``u`` of a
computation, ``s -> u  iff  s.clock < u.clock`` under the FTVC order.

:func:`check_theorem1` tests this exhaustively over every ordered pair of
useful states of a finished Damani-Garg run, using the protocol's
``clock_by_uid`` debug map for the clocks and the ground-truth graph for
the happen-before side.  It also confirms the paper's caveat that the
equivalence genuinely *fails* for non-useful states (the ``r20.c < s22.c``
example of Figure 1) by counting counterexamples among lost/orphan states.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.causality import build_ground_truth
from repro.core.ftvc import entries_precede
from repro.harness.runner import ExperimentResult


@dataclass
class TheoremReport:
    ok: bool
    useful_states: int
    pairs_checked: int
    violations: list[str]
    #: (lost or orphan) pairs where clock order and happen-before disagree,
    #: demonstrating why the theorem is restricted to useful states.
    non_useful_counterexamples: int

    def __bool__(self) -> bool:
        return self.ok


def _descendants(adj, start):
    seen = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def check_theorem1(
    result: ExperimentResult, *, max_states: int = 1500
) -> TheoremReport:
    """Check ``s -> u iff s.clock < u.clock`` over all useful-state pairs."""
    gt = build_ground_truth(result.trace, result.network.n)
    orphans = gt.orphans()
    useful = gt.states - gt.lost - orphans - gt.superseded

    clocks = {}
    for protocol in result.protocols:
        clock_map = getattr(protocol, "clock_by_uid", None)
        if clock_map is None:
            raise TypeError(
                f"{type(protocol).__name__} does not expose clock_by_uid; "
                "Theorem 1 can only be checked for the Damani-Garg protocol"
            )
        clocks.update(clock_map)

    # Only states whose clock was recorded participate (all useful states
    # created by deliveries/recovery have one; the check below confirms).
    tracked = sorted(u for u in useful if u in clocks)
    if len(tracked) > max_states:
        tracked = tracked[:max_states]

    # The negative control: among non-useful states the equivalence may
    # break (Figure 1's r20/s22).  A few such states, compared below.
    non_useful = sorted(
        (u for u in (gt.lost | orphans | gt.superseded) if u in clocks),
        key=str,
    )[:100]

    adj = gt.successors()
    # Both loops below apply the FTVC order to raw entry tuples, so the
    # length check ``<`` makes per pair is made once here.
    tracked_entries = [(u, clocks[u].entries) for u in tracked]
    control_entries = [(u, clocks[u].entries) for u in non_useful]
    if len({len(e) for _, e in tracked_entries + control_entries}) > 1:
        raise ValueError("FTVC length mismatch")
    # Reach sets of the first states, kept for the negative control.
    control_reach = {}
    violations: list[str] = []
    pairs = 0
    for s, mine in tracked_entries:
        reach = _descendants(adj, s)
        if len(control_reach) < 100:
            control_reach[s] = reach
        for u, theirs in tracked_entries:
            if u == s:
                continue
            pairs += 1
            hb = u in reach
            clk = entries_precede(mine, theirs)
            if hb != clk:
                violations.append(
                    f"{s} -> {u}: happen-before={hb} but clock<={clk} "
                    f"({clocks[s]!r} vs {clocks[u]!r})"
                )
                if len(violations) >= 10:
                    break
        if len(violations) >= 10:
            break

    counterexamples = 0
    for s, mine in tracked_entries[:100]:
        # The main loop stops early on violations; compute what it skipped.
        reach = control_reach.get(s)
        if reach is None:
            reach = _descendants(adj, s)
        for u, theirs in control_entries:
            if (u in reach) != entries_precede(mine, theirs):
                counterexamples += 1

    return TheoremReport(
        ok=not violations,
        useful_states=len(tracked),
        pairs_checked=pairs,
        violations=violations,
        non_useful_counterexamples=counterexamples,
    )
