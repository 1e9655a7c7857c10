"""Known failures, tracked: shrunk reproducers that must flip loudly.

Seven of the default-profile schedules 0-9999 raise ``RuntimeError: no
non-orphan checkpoint for Token(...)`` out of
``DamaniGargProcess._rollback`` (all seven run with ``commit_outputs``
and ``enable_gc``).  Each was shrunk with ``python -m repro stress
--schedules 1 --seed S --out-dir tests/stress/reproducers`` and is
replayed here under a *strict* xfail: while the bug stands the tests
xfail, and the PR that fixes it gets an XPASS failure telling it to
delete the marker (and ``KNOWN_FAILING`` in ``benchmarks/perf``).

Replay one by hand with ``python -m repro stress --replay
tests/stress/reproducers/stress-repro-seed1725.json``.
"""

from pathlib import Path

import pytest

from repro.stress import DEFAULT_PROFILE, load_reproducer, run_case

REPRODUCERS = sorted((Path(__file__).parent / "reproducers").glob("*.json"))


def test_every_known_failing_seed_has_a_reproducer():
    seeds = {load_reproducer(path)[0].seed for path in REPRODUCERS}
    assert seeds == {1725, 2193, 4704, 6397, 6865, 7578, 8103}


@pytest.mark.xfail(
    strict=True,
    reason="_rollback finds no non-orphan checkpoint under commit+gc",
)
@pytest.mark.parametrize("path", REPRODUCERS, ids=lambda path: path.stem)
def test_known_rollback_failure_replays_clean(path):
    case, _ = load_reproducer(path)
    result = run_case(
        case, theorem_max_states=DEFAULT_PROFILE.theorem_max_states
    )
    assert not result.failed, f"{case.describe()}: {result.headline()}"
