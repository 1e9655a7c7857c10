"""Differential conformance: every protocol, same schedules, same bar.

The same seeded PipelineApp workload + crash schedule runs through every
implementation in :data:`PROTOCOL_REGISTRY`; each run must satisfy the
shared invariants (recovery verdict, no surviving orphans, useful-output
subsequence consistency, published rollback bounds).  The mutation tests
at the bottom prove the oracle has teeth.
"""

import pytest

from repro.harness import conformance
from repro.harness.conformance import (
    CONFORMANCE_SCHEDULES,
    PROTOCOL_REGISTRY,
    build_conformance_spec,
    check_conformance,
    grade_kwargs,
    reference_outputs,
    registry_name,
    rollback_bound,
    run_conformance,
)
from repro.harness.runner import run_experiment
from repro.protocols import CoordinatedProcess, StromYeminiProcess
from repro.runtime.trace import EventKind


@pytest.fixture(scope="module")
def references():
    return {
        sched.name: reference_outputs(sched)
        for sched in CONFORMANCE_SCHEDULES
    }


class TestRegistry:
    def test_all_implementations_registered(self):
        assert len(PROTOCOL_REGISTRY) == 9
        names = {cls.name for cls in PROTOCOL_REGISTRY.values()}
        assert len(names) == 9   # no class registered twice

    def test_registry_name_round_trips(self):
        for name, cls in PROTOCOL_REGISTRY.items():
            assert registry_name(cls) == name

    def test_unregistered_class_rejected(self):
        with pytest.raises(KeyError):
            registry_name(object)


class TestGrading:
    def test_optimistic_protocols_promise_minimal_rollback(self):
        kwargs = grade_kwargs(PROTOCOL_REGISTRY["damani-garg"])
        assert all(kwargs.values())

    def test_domino_prone_protocols_are_graded_leniently(self):
        for cls in (StromYeminiProcess, CoordinatedProcess):
            assert not any(grade_kwargs(cls).values())

    def test_rollback_bounds(self):
        assert rollback_bound(PROTOCOL_REGISTRY["damani-garg"], 4) == 1
        assert rollback_bound(StromYeminiProcess, 4) == 16
        assert rollback_bound(PROTOCOL_REGISTRY["sender-based"], 8) == 1


@pytest.mark.parametrize(
    "schedule", CONFORMANCE_SCHEDULES, ids=lambda s: s.name
)
@pytest.mark.parametrize("protocol", sorted(PROTOCOL_REGISTRY))
def test_protocol_conforms(protocol, schedule, references):
    violations = run_conformance(
        PROTOCOL_REGISTRY[protocol],
        schedule,
        reference=references[schedule.name],
    )
    assert violations == []


def test_schedules_are_not_vacuous(references):
    """Every schedule must actually crash somebody, and the reference
    run must complete the whole pipeline."""
    for sched in CONFORMANCE_SCHEDULES:
        assert sched.crashes
        assert len(references[sched.name]) == sched.jobs
        result = run_experiment(
            build_conformance_spec(PROTOCOL_REGISTRY["damani-garg"], sched)
        )
        assert result.total_restarts >= len(sched.crashes)


class TestMutations:
    """Deliberately broken runs must be caught -- the oracle has teeth."""

    def _graded_run(self):
        sched = CONFORMANCE_SCHEDULES[0]
        cls = PROTOCOL_REGISTRY["damani-garg"]
        result = run_experiment(build_conformance_spec(cls, sched))
        return sched, cls, result

    def test_forged_novel_output_is_caught(self, references):
        sched, cls, result = self._graded_run()
        result.trace.record(
            99.0, EventKind.OUTPUT, 3, value=("done", 999, 1), uid=(3, 0, 77)
        )
        violations = check_conformance(
            result, cls, sched, references[sched.name]
        )
        assert any(v.startswith("outputs:") for v in violations)

    def test_duplicated_output_is_caught(self, references):
        sched, cls, result = self._graded_run()
        original = result.trace.events(EventKind.OUTPUT)[0]
        result.trace.record(
            99.0, EventKind.OUTPUT, original.pid,
            value=original["value"], uid=(3, 0, 78),
        )
        violations = check_conformance(
            result, cls, sched, references[sched.name]
        )
        assert any("duplicate" in v for v in violations)

    def test_broken_rollback_bound_is_caught(self, references, monkeypatch):
        sched, cls, result = self._graded_run()
        monkeypatch.setitem(
            conformance._ROLLBACK_BOUNDS, cls, lambda n: -1
        )
        violations = check_conformance(
            result, cls, sched, references[sched.name]
        )
        assert any(v.startswith("rollback-bound:") for v in violations)

    def test_reordered_outputs_are_caught(self, references):
        sched, cls, result = self._graded_run()
        reversed_reference = list(reversed(references[sched.name]))
        violations = check_conformance(result, cls, sched, reversed_reference)
        assert any(v.startswith("outputs:") for v in violations)
