"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_starts_at_time_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_fired == 0
    assert sim.pending == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(1.0, lambda n=name: fired.append(n))
    sim.run()
    assert fired == list("abcde")


def test_priority_breaks_ties_before_sequence():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("normal"))
    sim.schedule(1.0, lambda: fired.append("urgent"), priority=-1)
    sim.run()
    assert fired == ["urgent", "normal"]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_zero_delay_allowed_and_fires_after_current():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.0, lambda: fired.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]


def test_events_scheduled_during_run_are_honoured():
    sim = Simulator()
    fired = []

    def chain(k):
        fired.append(k)
        if k < 5:
            sim.schedule(1.0, lambda: chain(k + 1))

    sim.schedule(0.0, lambda: chain(0))
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_run_until_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.schedule(3.0, lambda: fired.append(3))
    sim.run(until=2.0)
    assert fired == [1, 2]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 2, 3]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_max_events_limit():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), lambda i=i: fired.append(i))
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("cancelled"))
    sim.schedule(2.0, lambda: fired.append("kept"))
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert sim.events_fired == 0


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [5.0]


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_drain_raises_on_livelock():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError, match="did not quiesce"):
        sim.drain(limit=100)


def test_drain_succeeds_on_finite_work():
    sim = Simulator()
    fired = []
    for i in range(20):
        sim.schedule(float(i), lambda i=i: fired.append(i))
    sim.drain(limit=100)
    assert len(fired) == 20


def test_pending_ignores_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    h1.cancel()
    assert sim.pending == 1


def test_pending_raw_counts_tombstones():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.pending == 1
    assert sim.pending_raw == 2
    sim.run()
    assert sim.pending == 0
    assert sim.pending_raw == 0


def test_max_events_with_until_does_not_time_warp():
    """Regression: stopping on max_events with work still pending before
    ``until`` must not fast-forward the clock past the unfired events."""
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(until=50.0, max_events=2)
    assert fired == [0, 1]
    assert sim.now == 2.0          # not 50.0
    sim.run(until=50.0)
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 50.0         # queue exhausted: fast-forward is fine


def test_max_events_with_until_fast_forwards_when_remaining_beyond_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(99.0, lambda: fired.append("late"))
    sim.run(until=10.0, max_events=5)
    assert fired == ["a"]
    assert sim.now == 10.0         # only event left is past until


def test_max_events_with_until_ignores_cancelled_leftovers():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    handle = sim.schedule(2.0, lambda: fired.append("dead"))
    handle.cancel()
    sim.run(until=10.0, max_events=1)
    assert fired == ["a"]
    assert sim.now == 10.0         # tombstone does not hold the clock back


def test_schedule_at_clamps_float_rounding_to_now():
    """Regression: ``schedule_at(t)`` where ``t`` equals ``now`` up to float
    rounding (e.g. 0.1 + 0.2 vs 0.3) must not raise SimulationError."""
    sim = Simulator()
    fired = []
    sim.schedule(0.1, lambda: sim.schedule(0.2, lambda: None))
    sim.run()
    assert sim.now == 0.1 + 0.2 and sim.now != 0.3  # the classic ulp gap
    sim.schedule_at(0.3, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [sim.now]


def test_schedule_at_still_rejects_genuinely_past_times():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(4.9, lambda: None)


def test_callbacks_take_positional_arguments():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "after")
    sim.schedule_at(0.5, lambda a, b: seen.append((a, b)), 1, 2)
    sim.run()
    assert seen == [(1, 2), "after"]


def test_the_handle_is_the_event():
    sim = Simulator()
    handle = sim.schedule(2.0, lambda: None, priority=3, label="x")
    assert (handle.time, handle.priority, handle.seq) == (2.0, 3, 0)
    assert handle.label == "x" and not handle.cancelled


def test_a_suspended_then_retargeted_timer_keeps_its_slot():
    """Three same-instant events; the middle one is handed to a
    placeholder (what suspending a timer does) and later handed back with
    a new callback and argument.  It still fires between its neighbours,
    at its original ``(time, priority, seq)``."""
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "first")
    handle = sim.schedule(5.0, fired.append, "owner")
    sim.schedule(5.0, fired.append, "last")
    key = (handle.time, handle.priority, handle.seq)
    sim.retarget(handle, lambda: fired.append("placeholder"))
    sim.run(until=4.0)
    assert sim.retarget(handle, fired.append, "owner again") is handle
    assert (handle.time, handle.priority, handle.seq) == key
    sim.run()
    assert fired == ["first", "owner again", "last"]
    assert sim.events_fired == 3


def test_schedule_at_fires_when_schedule_would():
    """``schedule_at(now + d)`` and ``schedule(d)`` agree to the bit, even
    where ``now + ((now + d) - now)`` is not ``now + d``."""
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    sim.run()
    delay = 0.7
    absolute = sim.schedule_at(sim.now + delay, lambda: None)
    assert absolute.time == sim.now + ((sim.now + delay) - sim.now)
    assert absolute.seq == 1
