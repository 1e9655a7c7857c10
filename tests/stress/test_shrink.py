"""The shrinker, exercised against synthetic failure predicates.

Using predicates instead of real simulations keeps these tests
millisecond-fast while still pinning the properties that matter: the
result always fails, is never larger than the input, removes everything
removable, and respects the attempt budget.
"""

from dataclasses import replace

from repro.stress import generate_case, shrink_case
from repro.stress.generate import with_events

# A case with plenty to remove: many crashes and at least one partition.
CASE = next(
    case
    for case in (generate_case(seed) for seed in range(200))
    if case.crash_count >= 5 and case.partition_count >= 1
    and case.duplicate_rate > 0
)


def test_shrinks_to_single_essential_crash():
    essential = CASE.crashes[2]

    def fails(candidate):
        return essential in candidate.crashes

    shrunk = shrink_case(CASE, fails)
    assert shrunk.crashes == (essential,)
    assert shrunk.partitions == ()


def test_shrinks_to_essential_pair_in_different_halves():
    first, last = CASE.crashes[0], CASE.crashes[-1]

    def fails(candidate):
        return first in candidate.crashes and last in candidate.crashes

    shrunk = shrink_case(CASE, fails)
    assert set(shrunk.crashes) == {first, last}


def test_result_always_satisfies_the_predicate():
    calls = []

    def fails(candidate):
        calls.append(candidate)
        return candidate.crash_count >= 2

    shrunk = shrink_case(CASE, fails)
    assert fails(shrunk)
    assert shrunk.crash_count == 2


def test_incidental_flags_are_switched_off():
    def fails(candidate):
        return bool(candidate.crashes)

    shrunk = shrink_case(CASE, fails)
    assert shrunk.duplicate_rate == 0.0
    assert not shrunk.retransmit_on_token
    assert not shrunk.commit_outputs and not shrunk.enable_gc


def test_essential_flag_is_kept():
    def fails(candidate):
        return candidate.duplicate_rate > 0

    shrunk = shrink_case(CASE, fails)
    assert shrunk.duplicate_rate == CASE.duplicate_rate


def test_horizon_is_cut_toward_the_last_event():
    def fails(candidate):
        return bool(candidate.crashes)

    shrunk = shrink_case(CASE, fails)
    last = max(t + d for t, _, d in shrunk.crashes)
    assert shrunk.horizon <= max(last + 2.0, CASE.horizon / 2) + 1e-9


def test_budget_bounds_predicate_calls():
    calls = []

    def fails(candidate):
        calls.append(candidate)
        return bool(candidate.crashes)

    shrink_case(CASE, fails, max_attempts=7)
    assert len(calls) <= 7


def test_unshrinkable_case_is_returned_unchanged():
    bare = replace(
        with_events(CASE, crashes=(CASE.crashes[0],), partitions=()),
        duplicate_rate=0.0,
        retransmit_on_token=False,
        commit_outputs=False,
        enable_gc=False,
        stability_interval=None,
        horizon=round(CASE.crashes[0][0] + CASE.crashes[0][2] + 2.0, 3),
    )

    def fails(candidate):
        return candidate == bare

    assert shrink_case(bare, fails) == bare


def test_commit_and_gc_are_dropped_one_at_a_time():
    """Each extension flag is its own candidate: a failure that needs GC
    keeps GC (and the gossip that drives it) and loses output commit."""
    case = replace(
        CASE, commit_outputs=True, enable_gc=True, stability_interval=4.0
    )

    def fails(candidate):
        return candidate.enable_gc

    shrunk = shrink_case(case, fails)
    assert shrunk.enable_gc and not shrunk.commit_outputs
    assert shrunk.stability_interval == 4.0
