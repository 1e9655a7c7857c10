"""Shrunk stress reproducers, replayed on every run.

Each file under ``reproducers/`` was written by ``python -m repro stress
--schedules 1 --seed S --out-dir ...`` for a schedule that once failed;
replay one by hand with ``python -m repro stress --replay <file>``.

``reproducers/*.json`` and ``reproducers/heavy/``: the schedules that
failed when a simulator-only coordinator object drove output commit and
GC.  Seven default-profile seeds and heavy seed 386 raised ``no
non-orphan checkpoint for Token(...)`` out of
``DamaniGargProcess._rollback``; heavy seed 1480 committed an output
from a state the ground truth condemns.  All of them ran
``commit_outputs`` + ``enable_gc``, and the twin replays below run each
one again with one of the two switched off.  The cause was Figure 4's
rollback rule: it re-mints the timestamps of the truncated orphan
states, and a frontier report sent before the rollback still certified
them as flushed.  With stability gossip on, a rollback now continues
the timestamp instead, and every one of these replays clean.  Most of
them replay clean under gossip even with that rule reverted, so they
no longer pin it.

``reproducers/gossip/``: the ones that do.  Each was shrunk under
gossip with the rollback rule reverted, failed there, and replays clean
with it: default seeds 40, 747 and 2595 (``no non-orphan checkpoint``)
and heavy seed 1480 (the output-commit violation again).

``reproducers/compaction/``: default seed 18, shrunk while a history
compaction existed that dropped the token records of superseded
versions and called any clock entry below them obsolete.  P2 fails
twice; P1 never heard from P2, so its messages carry P2's entry
``(0, 0)``, which only P2's version-0 token record tells from a lost
state's.  With that record dropped, P2 discarded them although P1's
states survive.  Every token record is now kept, and the case replays
clean under the gossip-only configuration its file names.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.stress import load_reproducer, run_case

HERE = Path(__file__).parent / "reproducers"
REPRODUCERS = sorted(HERE.glob("*.json"))
HEAVY = HERE / "heavy"
ROLLBACK = REPRODUCERS + [HEAVY / "stress-repro-seed386.json"]
OUTPUT_COMMIT = HEAVY / "stress-repro-seed1480.json"
GOSSIP = sorted((HERE / "gossip").glob("*.json"))
COMPACTION = HERE / "compaction" / "stress-repro-seed18.json"


def seeds(paths):
    return {load_reproducer(path)[0].seed for path in paths}


def replays_clean(path, **switches):
    case, _ = load_reproducer(path)
    case = replace(case, **switches)
    result = run_case(case)
    assert not result.failed, f"{case.describe()}: {result.headline()}"


def test_every_known_failing_seed_has_a_reproducer():
    assert seeds(REPRODUCERS) == {1725, 2193, 4704, 6397, 6865, 7578, 8103}
    assert seeds(GOSSIP) == {40, 747, 2595, 1480}


@pytest.mark.parametrize("path", REPRODUCERS, ids=lambda path: path.stem)
def test_known_rollback_failure_replays_clean(path):
    replays_clean(path)


def test_the_heavy_reproducers_are_the_two_described():
    assert seeds(HEAVY.glob("*.json")) == {386, 1480}


def test_heavy_rollback_failure_replays_clean():
    replays_clean(HEAVY / "stress-repro-seed386.json")


def test_heavy_output_commit_failure_replays_clean():
    replays_clean(OUTPUT_COMMIT)


# ---------------------------------------------------------------------------
# Twin replays: the same schedule with one extension switched off
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("path", ROLLBACK, ids=lambda path: path.stem)
def test_rollback_failure_replays_clean_without_gc(path):
    replays_clean(path, enable_gc=False)


@pytest.mark.parametrize("path", ROLLBACK, ids=lambda path: path.stem)
def test_rollback_failure_replays_clean_without_output_commit(path):
    replays_clean(path, commit_outputs=False)


def test_output_commit_failure_replays_clean_without_output_commit():
    replays_clean(OUTPUT_COMMIT, commit_outputs=False)


def test_output_commit_failure_replays_clean_without_gc():
    replays_clean(OUTPUT_COMMIT, enable_gc=False)


# ---------------------------------------------------------------------------
# Shrunk under gossip: they fail without the rollback clock rule
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("path", GOSSIP, ids=lambda path: path.stem)
def test_gossip_reproducer_replays_clean(path):
    case, recorded = load_reproducer(path)
    assert case.stability_interval is not None
    assert recorded["error"] or recorded["violations"]
    replays_clean(path)


# ---------------------------------------------------------------------------
# A twice-failed process keeps every restoration point
# ---------------------------------------------------------------------------
def test_twice_failed_process_keeps_messages_from_surviving_states():
    case, recorded = load_reproducer(COMPACTION)
    assert case.stability_interval is not None and not case.enable_gc
    assert recorded["violations"]
    replays_clean(COMPACTION)
