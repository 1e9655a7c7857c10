"""Protocol-equivalence properties.

Different correct recovery protocols may take different paths, but their
outcomes must agree wherever their guarantees overlap.  Two subtleties
bound what "agree" can mean:

- a protocol that injects *control traffic on the application channels*
  (sender-based logging's acks) perturbs latency draws and hence the
  delivery schedule -- its outcome is different-but-valid, so only
  protocols with identical failure-free message schedules are compared
  state-for-state;
- after a recovery, resumed executions interleave differently between
  protocols, so under failures the comparison is about the *recovery
  decision itself* (what was restored and replayed), which is fully
  determined by the logs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_recovery
from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols import (
    PessimisticReceiverProcess,
    ProtocolConfig,
    SmithJohnsonTygarProcess,
)
from repro.sim.failures import CrashPlan
from repro.runtime.trace import EventKind


def run(protocol, seed, crashes=None):
    spec = ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=40, seeds=(0, 1), initial_items=2),
        protocol=protocol,
        crashes=crashes,
        seed=seed,
        horizon=80.0,
        config=ProtocolConfig(checkpoint_interval=8.0, flush_interval=2.5),
    )
    return run_experiment(spec)


@given(seed=st.integers(min_value=0, max_value=3000))
@settings(max_examples=10, deadline=None)
def test_failure_free_outcomes_identical_across_protocols(seed):
    """D-G, SJT and pessimistic logging put only application messages on
    the channels, so failure-free their schedules -- and hence final app
    states -- are byte-identical."""
    reference = run(DamaniGargProcess, seed)
    ref_states = [p.executor.state for p in reference.protocols]
    for protocol in (SmithJohnsonTygarProcess, PessimisticReceiverProcess):
        other = run(protocol, seed)
        states = [p.executor.state for p in other.protocols]
        assert states == ref_states, protocol.name


@given(
    seed=st.integers(min_value=0, max_value=3000),
    crash_time=st.floats(min_value=10.0, max_value=40.0),
    pid=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=12, deadline=None)
def test_dg_and_sjt_make_the_same_restart_decision(seed, crash_time, pid):
    """Up to the crash the schedules are identical, so the stable log --
    and therefore the restored state, the replay length, and the token's
    restoration timestamp -- must agree exactly."""
    crashes = CrashPlan().crash(crash_time, pid, 2.0)
    dg = run(DamaniGargProcess, seed, crashes)
    sjt = run(SmithJohnsonTygarProcess, seed, crashes)
    assert check_recovery(dg).ok
    assert check_recovery(sjt).ok

    dg_restart = dg.trace.last(EventKind.RESTART, pid=pid)
    sjt_restart = sjt.trace.last(EventKind.RESTART, pid=pid)
    assert (dg_restart is None) == (sjt_restart is None)
    if dg_restart is None:
        return
    for field in ("failed_version", "new_version", "restored_uid",
                  "restored_ts", "replayed"):
        assert dg_restart[field] == sjt_restart[field], field


@given(seed=st.integers(min_value=0, max_value=3000))
@settings(max_examples=8, deadline=None)
def test_deliveries_up_to_first_divergence_point_match(seed):
    """Stronger schedule-identity check: the full DELIVER sequences of
    D-G and pessimistic logging coincide in a failure-free run."""
    a = run(DamaniGargProcess, seed)
    b = run(PessimisticReceiverProcess, seed)
    seq_a = [
        (e.pid, e["msg_id"], round(e.time, 9))
        for e in a.trace.events(EventKind.DELIVER)
    ]
    seq_b = [
        (e.pid, e["msg_id"], round(e.time, 9))
        for e in b.trace.events(EventKind.DELIVER)
    ]
    assert seq_a == seq_b
