"""Unit tests for failure injection."""

import pytest

from repro.sim import ProcessHost
from repro.sim.failures import (
    CrashEvent,
    CrashPlan,
    FailureInjector,
    PartitionPlan,
)
from repro.sim.kernel import Simulator
from repro.sim.network import FixedLatency, Network
from repro.sim.rng import RandomStreams


class NullProtocol:
    def on_start(self):
        pass

    def on_network_message(self, msg):
        pass

    def on_crash(self):
        pass

    def on_restart(self):
        pass


def make_stack(n=3):
    sim = Simulator()
    net = Network(sim, n, latency=FixedLatency(1.0))
    hosts = [ProcessHost(pid, sim, net) for pid in range(n)]
    for h in hosts:
        h.attach(NullProtocol())
    return sim, net, hosts


def test_crash_plan_builder():
    plan = CrashPlan().crash(5.0, 1).crash(9.0, 2, downtime=3.0)
    assert plan.failure_count == 2
    assert plan.events[1].downtime == 3.0


def test_crash_event_validation():
    with pytest.raises(ValueError):
        CrashEvent(-1.0, 0)
    with pytest.raises(ValueError):
        CrashEvent(1.0, 0, downtime=0.0)


def test_concurrent_builder():
    plan = CrashPlan().concurrent(5.0, [0, 1, 2])
    assert plan.failure_count == 3
    assert all(e.time == 5.0 for e in plan.events)


def test_injector_executes_crash_and_restart():
    sim, net, hosts = make_stack()
    plan = CrashPlan().crash(5.0, 1, downtime=2.0)
    FailureInjector(sim, hosts, net).install(plan)
    sim.run(until=5.5)
    assert not hosts[1].alive
    sim.run(until=7.5)
    assert hosts[1].alive
    assert hosts[1].crash_count == 1


def test_crash_precedes_same_time_delivery():
    """A message arriving at the crash instant must be buffered, not lost."""
    sim, net, hosts = make_stack()
    received = []
    hosts[1]._protocol.on_network_message = lambda m: received.append(m.payload)
    net.send(0, 1, "at-crash-time", latency=5.0)
    FailureInjector(sim, hosts, net).install(CrashPlan().crash(5.0, 1, 1.0))
    sim.run()
    assert received == ["at-crash-time"]   # delivered after restart


def test_poisson_plan_reproducible():
    a = CrashPlan.poisson(n=4, horizon=100.0, rate=0.05,
                          streams=RandomStreams(7))
    b = CrashPlan.poisson(n=4, horizon=100.0, rate=0.05,
                          streams=RandomStreams(7))
    assert a.events == b.events
    assert all(e.time < 100.0 for e in a.events)


def test_poisson_rate_scales_failures():
    low = CrashPlan.poisson(n=8, horizon=200.0, rate=0.01,
                            streams=RandomStreams(1))
    high = CrashPlan.poisson(n=8, horizon=200.0, rate=0.1,
                             streams=RandomStreams(1))
    assert high.failure_count > low.failure_count


def test_poisson_max_failures_cap():
    plan = CrashPlan.poisson(n=2, horizon=1e6, rate=1.0,
                             streams=RandomStreams(1),
                             max_failures_per_process=3)
    per_pid = {}
    for e in plan.events:
        per_pid[e.pid] = per_pid.get(e.pid, 0) + 1
    assert all(count <= 3 for count in per_pid.values())


def test_overlapping_crashes_do_not_truncate_downtime():
    """Regression: a crash landing mid-downtime is a no-op, and its paired
    restart must not fire either -- otherwise it resurrects the process
    early, silently truncating the first crash's downtime."""
    sim, net, hosts = make_stack()
    plan = (
        CrashPlan()
        .crash(10.0, 1, downtime=5.0)       # down [10, 15)
        .crash(11.0, 1, downtime=1.0)       # overlaps; restart at 12 must not fire
    )
    FailureInjector(sim, hosts, net).install(plan)
    alive_at = {}
    for t in (10.5, 12.5, 14.5, 15.5):
        sim.schedule_at(t, lambda t=t: alive_at.setdefault(t, hosts[1].alive))
    sim.run()
    assert alive_at == {10.5: False, 12.5: False, 14.5: False, 15.5: True}
    assert hosts[1].crash_count == 1        # the overlapping crash was skipped


def test_overlapping_crash_restart_never_fires_late_either():
    """The skipped crash's restart is not merely deferred: a long second
    downtime must not extend the first crash's outage."""
    sim, net, hosts = make_stack()
    plan = (
        CrashPlan()
        .crash(10.0, 1, downtime=4.0)       # down [10, 14)
        .crash(12.0, 1, downtime=100.0)     # skipped as a whole
    )
    FailureInjector(sim, hosts, net).install(plan)
    sim.run(until=15.0)
    assert hosts[1].alive                   # back at 14, not 112
    assert hosts[1].crash_count == 1
    sim.run()
    assert hosts[1].alive


def test_sequential_crashes_still_both_fire():
    sim, net, hosts = make_stack()
    plan = CrashPlan().crash(5.0, 1, downtime=2.0).crash(9.0, 1, downtime=2.0)
    FailureInjector(sim, hosts, net).install(plan)
    sim.run()
    assert hosts[1].alive
    assert hosts[1].crash_count == 2


def test_partition_plan_executes():
    sim, net, hosts = make_stack()
    received = []
    hosts[2]._protocol.on_network_message = lambda m: received.append(m.payload)
    plan = PartitionPlan().partition(2.0, [[0, 1], [2]], heal_time=10.0)
    FailureInjector(sim, hosts, net).install(partitions=plan)
    sim.schedule_at(3.0, lambda: net.send(0, 2, "cross"))
    sim.run(until=9.0)
    assert received == []
    sim.run()
    assert received == ["cross"]


def test_partition_requires_network():
    sim, _, hosts = make_stack()
    injector = FailureInjector(sim, hosts, network=None)
    with pytest.raises(ValueError):
        injector.install(partitions=PartitionPlan().partition(1.0, [[0, 1, 2]], 2.0))


def test_partition_heal_before_form_rejected():
    with pytest.raises(ValueError):
        PartitionPlan().partition(5.0, [[0], [1]], heal_time=5.0)


def test_overlapping_partition_plan_rejected():
    """Regression: the docstring promises non-overlap but nothing enforced
    it -- a second partition overwrote the first and the first heal
    released everything early."""
    sim, net, hosts = make_stack()
    plan = (
        PartitionPlan()
        .partition(5.0, [[0, 1], [2]], heal_time=15.0)
        .partition(10.0, [[0], [1, 2]], heal_time=20.0)
    )
    with pytest.raises(ValueError, match="overlapping partitions"):
        FailureInjector(sim, hosts, net).install(partitions=plan)


def test_overlap_detection_is_order_independent():
    plan = (
        PartitionPlan()
        .partition(10.0, [[0], [1, 2]], heal_time=20.0)
        .partition(5.0, [[0, 1], [2]], heal_time=15.0)
    )
    with pytest.raises(ValueError, match="overlapping partitions"):
        plan.validate()


def test_back_to_back_partitions_allowed():
    """Non-overlapping windows, including one forming exactly at the
    previous heal instant, execute cleanly."""
    sim, net, hosts = make_stack()
    plan = (
        PartitionPlan()
        .partition(2.0, [[0, 1], [2]], heal_time=6.0)
        .partition(6.0, [[0], [1, 2]], heal_time=9.0)
        .partition(12.0, [[0, 2], [1]], heal_time=14.0)
    )
    FailureInjector(sim, hosts, net).install(partitions=plan)
    sim.run()
    assert net._partition is None
    assert net.held_messages == 0
