"""Minimise failing stress cases to small reproducers.

Given a case and a ``fails(case) -> bool`` predicate (normally "run it
and see whether any oracle objects"), :func:`shrink_case` greedily
removes whatever it can while the failure persists:

1. delete crash events, ddmin-style -- halves first, then smaller
   chunks, down to single events;
2. delete partition windows the same way;
3. switch off incidental complexity (duplicate injection, retransmit,
   output commit, GC) one flag at a time;
4. cut the horizon down to just past the last remaining failure event.

Every candidate is itself a well-formed :class:`StressCase`, so the
final reproducer replays through exactly the same ``build_spec`` path as
the original -- there is no separate "shrunk" format to keep honest.
The predicate budget is bounded by ``max_attempts``; shrinking is
best-effort and always returns the smallest *verified-failing* case
seen, never an unverified guess.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence, TypeVar

from repro.stress.generate import StressCase, with_events

E = TypeVar("E")


class _Budget:
    """Counts predicate invocations; exhausted -> stop shrinking."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spent(self) -> bool:
        return self.used >= self.limit

    def charge(self) -> None:
        self.used += 1


def shrink_case(
    case: StressCase,
    fails: Callable[[StressCase], bool],
    *,
    max_attempts: int = 200,
) -> StressCase:
    """Return a minimal-ish case for which ``fails`` still holds.

    ``case`` itself must fail; the result is always a case the predicate
    confirmed.  ``max_attempts`` bounds the number of predicate calls
    (each one typically re-runs the simulation).
    """
    budget = _Budget(max_attempts)

    def check(candidate: StressCase) -> bool:
        if budget.spent():
            return False
        budget.charge()
        return fails(candidate)

    # Passes interact (fewer crashes may allow a shorter horizon, a
    # shorter horizon may strand a partition past the end), so iterate
    # until a full sweep changes nothing or the budget runs out.
    while not budget.spent():
        before = case
        case = _shrink_crashes(case, check)
        case = _shrink_partitions(case, check)
        case = _shrink_flags(case, check)
        case = _shrink_horizon(case, check)
        if case == before:
            break
    return case


# ---------------------------------------------------------------------------
# Event-list reduction (ddmin flavoured: big bites first)
# ---------------------------------------------------------------------------
def _reduce_events(
    events: Sequence[E],
    rebuild: Callable[[tuple[E, ...]], StressCase],
    check: Callable[[StressCase], bool],
) -> tuple[E, ...]:
    current = tuple(events)
    chunk = max(1, len(current) // 2)
    while chunk >= 1 and current:
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if check(rebuild(candidate)):
                current = candidate       # keep the deletion, same offset
            else:
                start += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return current


def _shrink_crashes(
    case: StressCase, check: Callable[[StressCase], bool]
) -> StressCase:
    if not case.crashes:
        return case
    kept = _reduce_events(
        case.crashes, lambda ev: with_events(case, crashes=ev), check
    )
    return with_events(case, crashes=kept)


def _shrink_partitions(
    case: StressCase, check: Callable[[StressCase], bool]
) -> StressCase:
    if not case.partitions:
        return case
    kept = _reduce_events(
        case.partitions, lambda ev: with_events(case, partitions=ev), check
    )
    return with_events(case, partitions=kept)


# ---------------------------------------------------------------------------
# Flag and horizon simplification
# ---------------------------------------------------------------------------
def _shrink_flags(
    case: StressCase, check: Callable[[StressCase], bool]
) -> StressCase:
    for flag, off in (
        ("duplicate_rate", 0.0),
        ("retransmit_on_token", False),
        ("commit_outputs", False),
        ("enable_gc", False),
    ):
        if not getattr(case, flag):
            continue
        candidate = replace(case, **{flag: off})
        if not (candidate.commit_outputs or candidate.enable_gc):
            # Nothing left for the stability gossip to drive.
            candidate = replace(candidate, stability_interval=None)
        if check(candidate):
            case = candidate
    return case


def _shrink_horizon(
    case: StressCase, check: Callable[[StressCase], bool]
) -> StressCase:
    """Pull the horizon down toward the last scheduled failure event."""
    last_event = 0.0
    for time, _pid, downtime in case.crashes:
        last_event = max(last_event, time + downtime)
    for _time, _groups, heal in case.partitions:
        last_event = max(last_event, heal)
    # A little slack after the last failure lets recovery traffic flow
    # before the drain phase takes over.
    floor = round(last_event + 2.0, 3)
    if floor >= case.horizon:
        return case
    candidate = replace(case, horizon=floor)
    if check(candidate):
        return candidate
    halfway = round((floor + case.horizon) / 2.0, 3)
    if halfway < case.horizon:
        candidate = replace(case, horizon=halfway)
        if check(candidate):
            return candidate
    return case
