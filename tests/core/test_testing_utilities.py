"""Tests for the public ScenarioBuilder (repro.testing)."""

import pytest

from repro.harness.scenarios import ScriptedApp
from repro.protocols.pessimistic_receiver import PessimisticReceiverProcess
from repro.testing import ScenarioBuilder
from repro.runtime.trace import EventKind


def test_docstring_example_works():
    result = (
        ScenarioBuilder(n=2)
        .app(ScriptedApp(bootstrap_sends={0: [(1, "m")]}))
        .latency(0, 1, 1.0)
        .crash(at=5.0, pid=1, downtime=1.0)
        .flush(pid=1, at=2.0)
        .run()
    )
    result.assert_recovered()
    assert result.protocols[1].executor.state == ("m",)


def test_without_flush_the_state_is_lost():
    result = (
        ScenarioBuilder(n=2)
        .app(ScriptedApp(bootstrap_sends={0: [(1, "m")]}))
        .latency(0, 1, 1.0)
        .crash(at=5.0, pid=1, downtime=1.0)
        .run()
    )
    result.assert_recovered()
    assert result.protocols[1].executor.state == ()


def test_checkpoint_scheduling():
    result = (
        ScenarioBuilder(n=2)
        .app(ScriptedApp(bootstrap_sends={0: [(1, "a"), (1, "b")]}))
        .latency(0, 1, 1.0, 2.0)
        .checkpoint(pid=1, at=3.0)       # checkpoint covers a and b
        .crash(at=6.0, pid=1, downtime=1.0)
        .run()
    )
    result.assert_recovered()
    assert result.protocols[1].executor.state == ("a", "b")
    restart = result.trace.last(EventKind.RESTART, pid=1)
    assert restart["replayed"] == 0      # the checkpoint carried everything


def test_protocol_override():
    result = (
        ScenarioBuilder(n=2)
        .app(ScriptedApp(bootstrap_sends={0: [(1, "m")]}))
        .protocol(PessimisticReceiverProcess)
        .crash(at=5.0, pid=1, downtime=1.0)
        .run()
    )
    result.assert_recovered()
    # Pessimistic logging never loses the state, no flush needed.
    assert result.protocols[1].executor.state == ("m",)


def test_assert_recovered_raises_on_violation():
    from repro.core.recovery import DamaniGargProcess

    class Broken(DamaniGargProcess):
        def _rollback(self, token):
            return []

    # Orphan scenario: P1's lost state sent to P0; broken P0 won't roll back.
    result = (
        ScenarioBuilder(n=2)
        .app(
            ScriptedApp(
                bootstrap_sends={0: [(1, "x")]},
                rules={(1, "x"): [(0, "bad")]},
            )
        )
        .protocol(Broken)
        .latency(0, 1, 1.0)
        .latency(1, 0, 1.0)
        .crash(at=4.0, pid=1, downtime=1.0)
        .run()
    )
    with pytest.raises(AssertionError):
        result.assert_recovered()


def test_builder_validation():
    with pytest.raises(ValueError):
        ScenarioBuilder(n=0)
    with pytest.raises(ValueError, match="needs .app"):
        ScenarioBuilder(n=2).run()


def test_default_latency_and_horizon():
    result = (
        ScenarioBuilder(n=2)
        .app(ScriptedApp(bootstrap_sends={0: [(1, "m")]}))
        .default_latency(7.0)
        .horizon(30.0)
        .run()
    )
    deliveries = result.trace.events(EventKind.DELIVER, pid=1)
    assert deliveries[0].time == 7.0
