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

``reproducers/compaction/``: the next known failure, kept under a strict
xfail until it is fixed.  With ``compact_history`` on, a schedule may
discard as obsolete messages sent by states that survive.  No stress
profile draws compaction yet, so the case file cannot say it; the test
switches it on.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.harness.runner import run_experiment
from repro.stress import load_reproducer, run_case
from repro.stress.generate import build_spec
from repro.stress.oracles import check_case

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
# History compaction: known to fail
# ---------------------------------------------------------------------------
@pytest.mark.xfail(
    strict=True,
    reason="default seed 18 (n=5 pipeline, compaction only, P2 crashing "
    "twice): P1 never heard from P2, so its messages carry P2's entry "
    "(0, 0); compaction lifts P2's floor to version 1 and P2 discards "
    "them as obsolete although P1's states survive",
)
def test_compaction_keeps_messages_from_surviving_states():
    case, _ = load_reproducer(COMPACTION)
    spec = build_spec(case)
    spec.config = replace(spec.config, compact_history=True)
    violations = check_case(run_experiment(spec), case)
    assert not violations, violations[0]
