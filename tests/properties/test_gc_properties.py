"""Property-based safety of the Remark-2 garbage collector.

The killer property: for arbitrary crash schedules and sweep cadences, a
run with GC enabled must (a) pass every oracle check and (b) produce the
*identical application outcome* to the same run without GC -- collection
must be semantically invisible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_recovery
from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan

crash_events = st.lists(
    st.tuples(
        st.floats(min_value=5.0, max_value=60.0),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=3,
)


def build(seed, events, *, gc, sweep):
    plan = CrashPlan()
    for time, pid in events:
        plan.crash(time, pid, 2.0)
    plan.events.sort(key=lambda e: (e.time, e.pid))
    return ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=40, seeds=(0, 1), initial_items=2),
        protocol=DamaniGargProcess,
        crashes=plan,
        seed=seed,
        horizon=80.0,
        config=ProtocolConfig(
            checkpoint_interval=6.0, flush_interval=2.0, enable_gc=gc,
            gossip_interval=sweep,
        ),
    )


@given(
    seed=st.integers(min_value=0, max_value=5000),
    events=crash_events,
    sweep=st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=20, deadline=None)
def test_gc_is_semantically_invisible(seed, events, sweep):
    with_gc = run_experiment(build(seed, events, gc=True, sweep=sweep))
    without = run_experiment(build(seed, events, gc=False, sweep=sweep))

    verdict = check_recovery(with_gc)
    assert verdict.ok, verdict.violations

    # Identical application outcome: same final app state everywhere.
    for a, b in zip(with_gc.protocols, without.protocols):
        assert a.executor.state == b.executor.state

    # And the space actually shrank whenever there was anything to collect.
    retained = sum(
        p.storage.log.retained_stable_entries for p in with_gc.protocols
    )
    full = sum(
        p.storage.log.retained_stable_entries for p in without.protocols
    )
    assert retained <= full
