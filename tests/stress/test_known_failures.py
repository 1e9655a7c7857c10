"""Known failures, tracked: shrunk reproducers that must flip loudly.

Seven of the default-profile schedules 0-9999 raise ``RuntimeError: no
non-orphan checkpoint for Token(...)`` out of
``DamaniGargProcess._rollback`` (all seven run with ``commit_outputs``
and ``enable_gc``).  Each was shrunk with ``python -m repro stress
--schedules 1 --seed S --out-dir tests/stress/reproducers`` and is
replayed here under a *strict* xfail: while the bug stands the tests
xfail, and the PR that fixes it gets an XPASS failure telling it to
delete the marker (and ``KNOWN_FAILING`` in ``benchmarks/perf``).

The heavy profile is clean on seeds 0-384; over 0-1999 ten schedules
fail.  Nine are the same ``_rollback`` error (386, 651, 768, 886, 1320,
1325, 1443, 1485, 1649; 386 is kept here) and one is of another kind:
seed 1480 commits an output from a state the ground truth condemns, i.e.
the Section 6.5 output-commit guarantee itself.  Both were shrunk with
``--profile heavy ... --out-dir tests/stress/reproducers/heavy`` and
carry their own strict xfail below.

Replay one by hand with ``python -m repro stress --replay
tests/stress/reproducers/stress-repro-seed1725.json``.

Every failing schedule runs both ``commit_outputs`` and ``enable_gc``.
The twin replays at the bottom run each reproducer again with one of
the two switched off, which splits the inventory in two:

- the eight ``_rollback`` reproducers replay clean without GC and still
  raise without output commit: that bug lives in the choice of the GC
  anchor (which checkpoints and log prefix a stability sweep discards);
- heavy seed 1480 is the reverse: clean without output commit, still
  committing from a condemned state without GC: that bug lives in the
  output-commit predicate itself.

The "still fails" twins are strict xfails as well, so the fix flips them.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.stress import load_reproducer, run_case

REPRODUCERS = sorted((Path(__file__).parent / "reproducers").glob("*.json"))
HEAVY = Path(__file__).parent / "reproducers" / "heavy"
ROLLBACK = REPRODUCERS + [HEAVY / "stress-repro-seed386.json"]
OUTPUT_COMMIT = HEAVY / "stress-repro-seed1480.json"


def replays_clean(path, **switches):
    case, _ = load_reproducer(path)
    case = replace(case, **switches)
    result = run_case(case)
    assert not result.failed, f"{case.describe()}: {result.headline()}"


def test_every_known_failing_seed_has_a_reproducer():
    seeds = {load_reproducer(path)[0].seed for path in REPRODUCERS}
    assert seeds == {1725, 2193, 4704, 6397, 6865, 7578, 8103}


@pytest.mark.xfail(
    strict=True,
    reason="_rollback finds no non-orphan checkpoint under commit+gc",
)
@pytest.mark.parametrize("path", REPRODUCERS, ids=lambda path: path.stem)
def test_known_rollback_failure_replays_clean(path):
    replays_clean(path)


def test_the_heavy_reproducers_are_the_two_described():
    seeds = {load_reproducer(path)[0].seed for path in HEAVY.glob("*.json")}
    assert seeds == {386, 1480}


@pytest.mark.xfail(
    strict=True,
    reason="heavy seed 386: the same _rollback 'no non-orphan checkpoint "
    "for Token' under commit+gc, at n=10 with 8 crashes",
)
def test_heavy_rollback_failure_replays_clean():
    replays_clean(HEAVY / "stress-repro-seed386.json")


@pytest.mark.xfail(
    strict=True,
    reason="heavy seed 1480 (n=9 pipeline, commit+gc): pid 8 commits "
    "output ('done', 3, ...) from state (8, 0, 5), which a later failure "
    "condemns -- Section 6.5's output-commit guarantee is violated",
)
def test_heavy_output_commit_failure_replays_clean():
    replays_clean(OUTPUT_COMMIT)


# ---------------------------------------------------------------------------
# Twin replays: the same schedule with one extension switched off
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("path", ROLLBACK, ids=lambda path: path.stem)
def test_rollback_failure_replays_clean_without_gc(path):
    replays_clean(path, enable_gc=False)


@pytest.mark.xfail(
    strict=True,
    reason="the _rollback failure does not need output commit: it still "
    "raises 'no non-orphan checkpoint for Token' with commit_outputs off",
)
@pytest.mark.parametrize("path", ROLLBACK, ids=lambda path: path.stem)
def test_rollback_failure_replays_clean_without_output_commit(path):
    replays_clean(path, commit_outputs=False)


def test_output_commit_failure_replays_clean_without_output_commit():
    replays_clean(OUTPUT_COMMIT, commit_outputs=False)


@pytest.mark.xfail(
    strict=True,
    reason="heavy seed 1480 does not need GC: pid 8 still commits output "
    "('done', 3, ...) from the condemned state (8, 0, 5) with enable_gc off",
)
def test_output_commit_failure_replays_clean_without_gc():
    replays_clean(OUTPUT_COMMIT, enable_gc=False)
