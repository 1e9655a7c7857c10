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
from functools import reduce
from itertools import islice
from operator import and_, getitem

from repro.analysis.causality import GroundTruth, build_ground_truth
from repro.harness.runner import ExperimentResult

#: ``max_states`` default: above the useful states of every stress schedule
#: seen (quick 368, default 271, heavy 307), so a sweep compares them all.
MAX_STATES = 1500


@dataclass
class TheoremReport:
    ok: bool
    useful_states: int
    pairs_checked: int
    violations: list[str]
    #: (lost or orphan) pairs where clock order and happen-before disagree,
    #: demonstrating why the theorem is restricted to useful states.
    non_useful_counterexamples: int
    #: useful states left out because no protocol recorded a clock for them
    untracked_useful: int = 0

    def __bool__(self) -> bool:
        return self.ok


def _clock_successors(bits: list[int], rows: list[tuple]) -> list[int]:
    """Per state, the mask of states whose clock is strictly greater
    (``bits[i]`` is state i's bit, ``rows[i]`` its entry tuple).

    For each component one sort yields the suffix masks "entry >= v";
    ``c <= c'`` is the AND of one lookup per component, and strictness
    drops the states whose entry tuple is equal."""
    at_least = []
    for column in zip(*rows):
        mask, ranks = 0, {}
        for value, bit in sorted(zip(column, bits), reverse=True):
            mask |= bit
            ranks[value] = mask     # the last write per value has them all
        at_least.append(ranks)
    same: dict[tuple, int] = {}
    for bit, row in zip(bits, rows):
        same[row] = same.get(row, 0) | bit
    return [
        reduce(and_, map(getitem, at_least, row)) & ~same[row]
        for row in rows
    ]


def check_theorem1(
    result: ExperimentResult,
    *,
    max_states: int = MAX_STATES,
    ground_truth: GroundTruth | None = None,
) -> TheoremReport:
    """Check ``s -> u iff s.clock < u.clock`` over all useful-state pairs.

    Every ordered pair is decided, none sampled: row ``s`` of the theorem
    is the ground truth's reach mask XOR the :func:`_clock_successors`
    mask, restricted to the tracked states -- zero iff all its pairs
    agree, each set bit a violating ``u`` (docs/ORACLES.md Sec 3).
    """
    gt = ground_truth or build_ground_truth(result.trace, result.network.n)
    useful = gt.useful()

    clocks = {}
    for protocol in result.protocols:
        clock_map = getattr(protocol, "clock_by_uid", None)
        if clock_map is None:
            raise TypeError(
                f"{type(protocol).__name__} does not expose clock_by_uid; "
                "Theorem 1 can only be checked for the Damani-Garg protocol"
            )
        clocks.update(clock_map)

    recorded = sorted(u for u in useful if u in clocks)
    tracked = recorded[:max_states]
    # The negative control: among non-useful states the equivalence may
    # break (Figure 1's r20/s22).  A few such states, compared below.
    control = sorted(
        (u for u in (gt.condemned | gt.superseded) if u in clocks),
        key=str,
    )[:100]

    indexed = tracked + control
    rows = [clocks[u].entries for u in indexed]
    if len(set(map(len, rows))) > 1:
        raise ValueError("FTVC length mismatch")
    bits = [gt.bits[u] for u in indexed]
    tracked_mask = sum(bits[:len(tracked)])
    control_mask = sum(bits[len(tracked):])
    # differs[i]: the states tracked[i] orders one way by reach, the
    # other way by clock
    differs = [
        gt.reach[s] ^ greater
        for s, greater in zip(tracked, _clock_successors(bits, rows))
    ]
    found = list(islice((
        (at, s, u)
        for at, s in enumerate(tracked)
        if (wrong := differs[at] & tracked_mask & ~bits[at])
        for u in sorted(gt.members(wrong))
    ), 10))
    violations = []
    for _, s, u in found:
        hb = gt.happens_before(s, u)
        violations.append(
            f"{s} -> {u}: happen-before={hb} but clock<={not hb} "
            f"({clocks[s]!r} vs {clocks[u]!r})"
        )
    pairs = len(tracked) * (len(tracked) - 1)
    if len(found) == 10:
        # Reporting stops at the tenth violation, in row-major order of the
        # sorted states: count the pairs up to and including it.
        at, s, u = found[-1]
        pairs = at * (len(tracked) - 1) + tracked.index(u) + (u < s)
    counterexamples = sum(
        (wrong & control_mask).bit_count() for wrong in differs[:100]
    )

    return TheoremReport(
        ok=not violations,
        useful_states=len(tracked),
        pairs_checked=pairs,
        violations=violations,
        non_useful_counterexamples=counterexamples,
        untracked_useful=len(useful) - len(recorded),
    )
