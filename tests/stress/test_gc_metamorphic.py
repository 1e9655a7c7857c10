"""Garbage collection, graded twice over the stress schedules that draw it.

Metamorphic oracle: Remark 2 reclaims only checkpoints and log prefixes
that no recovery can need.  So a schedule run with ``enable_gc`` and the
same schedule with it off must restore the same checkpoints, in the same
order, and leave every process in the same state.  Schedules that arm a
``compaction:*`` crash point are left out: that point exists only with
GC on, so the twin run would not crash where the original does.

The shipped configuration: the live load runs and the KV service run
gossip, GC and Remark 1 with output commit off, a combination no stress
profile draws.  Every GC schedule, crash points included, is replayed
that way and must pass ``check_case``.
"""

from dataclasses import replace

import pytest

from repro.harness.runner import run_experiment
from repro.runtime.trace import EventKind
from repro.stress import run_case
from repro.stress.generate import build_spec, generate_case
from repro.stress.profiles import PROFILES

SEED_BLOCKS = [("default", range(400)), ("heavy", range(100))]


def _recovery(case):
    """Restored checkpoint uids in trace order, each process's final
    state uid, and how much GC reclaimed."""
    result = run_experiment(build_spec(case))
    restores = [
        (event.pid, event.fields["ckpt_uid"])
        for event in result.trace.events(EventKind.RESTORE)
    ]
    ends = [protocol.executor.current_uid for protocol in result.protocols]
    reclaimed = sum(
        protocol.storage.log.gc_count for protocol in result.protocols
    )
    result.release()
    return restores, ends, reclaimed


def _gc_cases(profile, seeds):
    for seed in seeds:
        case = generate_case(seed, PROFILES[profile])
        if case.enable_gc:
            yield case


def _arms_compaction_point(case):
    return any(
        point.startswith("compaction:") for _, point, _ in case.crash_points
    )


@pytest.mark.parametrize("profile, seeds", SEED_BLOCKS)
def test_gc_off_twin_restores_the_same_checkpoints(profile, seeds):
    cases = restores = collected = 0
    for case in _gc_cases(profile, seeds):
        if _arms_compaction_point(case):
            continue
        with_gc, ends, reclaimed = _recovery(case)
        without_gc, twin_ends, none = _recovery(replace(case, enable_gc=False))
        assert none == 0
        assert without_gc == with_gc, case.describe()
        assert twin_ends == ends, case.describe()
        cases += 1
        restores += len(with_gc)
        collected += reclaimed > 0
    # The sample has teeth: many schedules, restores and actual GC.
    assert cases > 25 and restores > 200 and collected > cases // 2


@pytest.mark.parametrize("profile, seeds", SEED_BLOCKS)
def test_gc_without_output_commit_recovers(profile, seeds):
    cases = crash_points = 0
    for case in _gc_cases(profile, seeds):
        shipped = replace(case, commit_outputs=False, retransmit_on_token=True)
        result = run_case(shipped)
        assert not result.failed, f"{shipped.describe()}: {result.headline()}"
        cases += 1
        crash_points += _arms_compaction_point(case)
    assert cases > 25 and crash_points > 0
