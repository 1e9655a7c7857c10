"""``check_case`` itself: what it shares, and what it refuses to hide."""

import pytest

from repro.analysis import causality
from repro.analysis.theorem import MAX_STATES
from repro.harness.runner import run_experiment
from repro.stress import (
    PROFILES, build_spec, check_case, generate_case, oracles,
)


@pytest.fixture
def graded():
    case = generate_case(3, PROFILES["default"])
    return run_experiment(build_spec(case)), case


def test_one_ground_truth_serves_every_oracle(graded, monkeypatch):
    built = []

    def counting(trace, n):
        built.append(n)
        return causality.build_ground_truth(trace, n)

    def rebuilt(trace, n):
        raise AssertionError("an oracle rebuilt the ground truth")

    monkeypatch.setattr(oracles, "build_ground_truth", counting)
    monkeypatch.setattr(
        "repro.analysis.consistency.build_ground_truth", rebuilt
    )
    monkeypatch.setattr("repro.analysis.theorem.build_ground_truth", rebuilt)
    assert check_case(*graded) == []
    assert len(built) == 1


def test_a_useful_state_without_a_clock_fails_the_case(graded):
    result, case = graded
    gt = causality.build_ground_truth(result.trace, result.network.n)
    victim = sorted(gt.useful())[-1]
    del result.protocols[victim[0]].clock_by_uid[victim]
    assert check_case(result, case) == [
        "theorem1: 1 useful states have no recorded clock"
    ]


def test_no_profile_caps_the_theorem_check():
    for profile in PROFILES.values():
        assert profile.theorem_max_states == MAX_STATES
