"""Periodic checkpoint/flush behaviour across crash and restart (SimEnv).

The engine pauses a protocol's periodic chains when its process crashes
and resumes them at restart.  These tests pin the contract:

- a dead process does no checkpoint/flush work;
- the resumed chain keeps its original phase (fires at the instants the
  never-crashed chain would have used) and there is exactly ONE chain --
  a restart that naively re-armed the timers would double the cadence;
- halting while down abandons the suspended chains for good.
"""

import pytest

from repro.harness.scenarios import ScriptedApp
from repro.protocols.base import ProtocolConfig
from repro.runtime.trace import EventKind
from repro.testing import ScenarioBuilder

CKPT = 2.0
CRASH_AT = 5.0
DOWNTIME = 4.0          # restart at t = 9.0; periodic fires 6.0, 8.0 skipped
HORIZON = 20.0


@pytest.fixture(scope="module")
def crash_run():
    return (
        ScenarioBuilder(n=2)
        .app(ScriptedApp(
            bootstrap_sends={0: [(1, "m1")]},
            rules={(1, "m1"): [(0, "m2")]},
        ))
        .config(ProtocolConfig(checkpoint_interval=CKPT,
                               flush_interval=3.0))
        .crash(at=CRASH_AT, pid=1, downtime=DOWNTIME)
        .horizon(HORIZON)
        .run()
    )


def _ckpt_times(run, pid):
    return [e.time for e in run.trace.events(EventKind.CHECKPOINT, pid)]


def test_recovery_still_passes(crash_run):
    crash_run.assert_recovered()


def test_no_checkpoints_while_dead(crash_run):
    restart = crash_run.trace.events(EventKind.RESTART, 1)[0]
    dead_window = [
        t for t in _ckpt_times(crash_run, 1) if CRASH_AT < t < restart.time
    ]
    assert dead_window == []


def test_no_flushes_while_dead(crash_run):
    restart = crash_run.trace.events(EventKind.RESTART, 1)[0]
    dead_window = [
        e.time
        for e in crash_run.trace.events(EventKind.LOG_FLUSH, 1)
        if CRASH_AT < e.time < restart.time
    ]
    assert dead_window == []


def test_survivor_cadence_is_undisturbed(crash_run):
    # p0 never crashed: its periodic checkpoints sit exactly on the grid.
    times = _ckpt_times(crash_run, 0)
    assert times, "p0 took no periodic checkpoints at all"
    for t in times:
        assert t % CKPT == pytest.approx(0.0), times


def test_resumed_chain_keeps_phase_and_is_single(crash_run):
    restart = crash_run.trace.events(EventKind.RESTART, 1)[0]
    after = [t for t in _ckpt_times(crash_run, 1) if t > restart.time]
    # Phase: every post-restart periodic checkpoint lands on the original
    # grid (multiples of the interval), not on restart_time + k*interval.
    periodic = [t for t in after if t % CKPT == pytest.approx(0.0)]
    # Single chain: consecutive grid fires are exactly one interval apart;
    # a duplicated chain would fire twice per instant or halve the gaps.
    assert len(periodic) == len(set(periodic)), (
        f"duplicate periodic checkpoints: {periodic}"
    )
    gaps = [b - a for a, b in zip(periodic, periodic[1:])]
    assert all(gap == pytest.approx(CKPT) for gap in gaps), periodic
    # And the chain did actually resume.
    assert periodic, after


def test_periodic_state_is_initialised_before_start():
    # Regression: _periodic_enabled used to be set only inside
    # start_periodic_tasks, so pause/resume/halt before on_start crashed
    # with AttributeError.
    from repro.core.recovery import DamaniGargProcess
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network
    from repro.sim import ProcessHost
    from repro.sim.rng import RandomStreams

    sim = Simulator()
    network = Network(sim, 1, streams=RandomStreams(0))
    host = ProcessHost(0, sim, network)
    protocol = DamaniGargProcess(host, ScriptedApp())
    assert protocol._periodic_enabled is False
    protocol.pause_periodic_tasks()       # no chains yet: must be a no-op
    protocol.resume_periodic_tasks()
    protocol.halt_periodic_tasks()
    assert protocol._periodic_enabled is False


def test_halt_while_down_abandons_the_chains():
    run = (
        ScenarioBuilder(n=2)
        .app(ScriptedApp(bootstrap_sends={0: [(1, "m1")]}))
        .config(ProtocolConfig(checkpoint_interval=CKPT,
                               flush_interval=3.0))
        .crash(at=5.0, pid=1, downtime=100.0)   # still down at the horizon
        .horizon(20.0)
        .run()
    )
    # halt_periodic_tasks ran at the horizon while p1 was down.  The
    # drain still executes the (late) restart, which takes its one
    # immediate checkpoint -- but the suspended periodic chain must have
    # been abandoned, so nothing fires after that.
    restarts = run.trace.events(EventKind.RESTART, 1)
    assert restarts, "drain should still have restarted p1"
    restart_time = restarts[0].time
    post_crash = [t for t in
                  (e.time for e in run.trace.events(EventKind.CHECKPOINT, 1))
                  if t > 5.0]
    assert post_crash == [restart_time]
