"""A fence around the simulator's hot path, counted in Python frames.

``sys.setprofile`` counts function entries exactly, so unlike a timing
these numbers repeat and can gate a change.  The path one application
message travels -- ``_register_send`` -> ``Network.send`` -> the kernel ->
``Network._deliver`` -> ``on_network_message`` -> ``_deliver`` ->
``execute`` -> ``MessageLog.append`` -> ``SimTrace.record`` -- entered 92
frames per delivery before it was made to cost one object per concept
and no frame that only forwards; a stress schedule entered 21.8k.  The
budgets below leave about a third of headroom over what it costs now
(docs/PERFORMANCE.md, "The simulate half", has the ledger).
"""

from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.stress import sweep

from tests.properties.test_clock_reference import python_frames

HOPS = 120


def frames_per_delivery(n):
    spec = ExperimentSpec(
        n=n,
        app=RandomRoutingApp(
            hops=HOPS, seeds=tuple(range(n)), initial_items=2
        ),
        protocol=DamaniGargProcess,
        seed=0,
        horizon=HOPS * 1.5 + 10.0,
    )
    results = []
    frames = python_frames(lambda: results.append(run_experiment(spec)))
    delivered = results[0].total_delivered
    assert delivered == n * 2 * (HOPS + 1)       # failure-free: every hop
    return frames / delivered


def test_a_failure_free_delivery_enters_at_most_60_frames():
    assert frames_per_delivery(16) <= 60


def test_frames_per_delivery_do_not_grow_with_n():
    """No per-peer work takes a frame per peer: the clock, the history
    and the wire accounting each walk their n entries inside one."""
    small, large = frames_per_delivery(4), frames_per_delivery(64)
    assert large <= 1.10 * small, (small, large)


def test_a_stress_schedule_enters_at_most_16k_frames():
    schedules = 60
    reports = []
    frames = python_frames(
        lambda: reports.append(
            sweep(schedules, base_seed=300, shrink=False)
        )
    )
    assert reports[0].ok, reports[0].summary()
    assert frames / schedules <= 16_000
