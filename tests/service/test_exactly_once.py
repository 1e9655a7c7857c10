"""Exactly-once across crash and rollback, on the deterministic simulator.

The scenario the service's session ledger exists for: a client retries
the same ``op_id`` around a primary crash.  The gateway (pid 0) injects
the put and its retries via ``inject_app_send`` -- exactly what the live
gateway does -- the primary is crashed mid-run, and afterwards the
surviving timeline must show the op applied exactly once, with versions
that never regress.  The live-engine half of this contract is
``tests/service/test_live_service.py``.
"""

from repro.core.recovery import DamaniGargProcess
from repro.protocols.base import ProtocolConfig
from repro.runtime.trace import EventKind, SimTrace
from repro.service.kv import KVPut, KVReply, KVServiceApp
from repro.sim import ProcessHost
from repro.sim.failures import CrashPlan, FailureInjector
from repro.sim.kernel import Simulator
from repro.sim.network import DeliveryOrder, Network, ScriptedLatency
from repro.sim.rng import RandomStreams


def _boot(n=4, crashes=None, seed=0, **config):
    """A manual shard: gateway at pid 0, replicas 1..n-1, like live."""
    sim = Simulator()
    trace = SimTrace()
    network = Network(
        sim,
        n,
        streams=RandomStreams(seed),
        latency=ScriptedLatency(default=0.05),
        order=DeliveryOrder.RANDOM,
        trace=trace,
    )
    hosts = [ProcessHost(pid, sim, network, trace) for pid in range(n)]
    app = KVServiceApp(replicas=n - 1)
    protocols = [
        DamaniGargProcess(
            host,
            app,
            ProtocolConfig(
                checkpoint_interval=2.0,
                flush_interval=0.5,
                retransmit_on_token=True,
                **config,
            ),
        )
        for host in hosts
    ]
    for host in hosts:
        host.start()
    if crashes is not None:
        FailureInjector(sim, hosts, network).install(crashes=crashes)
    return sim, trace, hosts, protocols, app


def _settle(sim, protocols, horizon):
    sim.run(until=horizon)
    for protocol in protocols:
        protocol.halt_periodic_tasks()
    sim.drain()


def _replies(protocol, op_id):
    return [
        value
        for _, value in protocol.outputs
        if isinstance(value, KVReply) and value.op_id == op_id
    ]


def test_retry_through_primary_crash_applies_once():
    app_probe = KVServiceApp(replicas=3)
    primary = app_probe.primary_for("a")
    plan = CrashPlan()
    plan.crash(5.0, primary, 2.0)
    sim, trace, hosts, protocols, app = _boot(crashes=plan)
    gateway = protocols[0]

    def put(op_id, value):
        return lambda: gateway.inject_app_send(
            primary, KVPut(key="a", value=value, op_id=op_id)
        )

    # One op, retried before, during, and after the crash window --
    # always the same op_id, as the service client does.
    for t in (1.0, 2.0, 6.0, 12.0):
        sim.schedule(t, put((7, 0), 9))
    # A second op after recovery must land on the next version.
    sim.schedule(14.0, put((7, 1), 10))
    _settle(sim, protocols, horizon=40.0)

    assert trace.events(EventKind.CRASH, pid=primary)
    assert trace.events(EventKind.RESTART, pid=primary)

    # Exactly one application per op on the surviving timeline.
    state = protocols[primary].executor.state
    assert state.lookup("a") == (10, 2)
    assert state.slot(7).applied == (0, 1)

    # Every ack for the retried op carries the same version -- retries
    # and crash recovery never surfaced a second application -- and the
    # follow-up op observes the next version: monotone, no regression.
    first = _replies(protocols[primary], (7, 0))
    second = _replies(protocols[primary], (7, 1))
    assert first and {r.version for r in first} == {1}
    assert second and {r.version for r in second} == {2}

    # Replication converged: every replica holds the final write.
    for pid in range(1, 4):
        assert protocols[pid].executor.state.lookup("a") == (10, 2)


def test_retry_without_crash_is_deduplicated():
    sim, trace, hosts, protocols, app = _boot()
    primary = app.primary_for("k")
    gateway = protocols[0]
    for t in (1.0, 1.2, 1.4):
        sim.schedule(
            t,
            lambda: gateway.inject_app_send(
                primary, KVPut(key="k", value=3, op_id=(5, 0))
            ),
        )
    _settle(sim, protocols, horizon=20.0)
    state = protocols[primary].executor.state
    assert state.lookup("k") == (3, 1)
    replies = _replies(protocols[primary], (5, 0))
    # Three acks (one per delivery), all for the single application.
    assert len(replies) == 3
    assert {r.version for r in replies} == {1}


def test_interleaved_sessions_get_distinct_versions():
    sim, trace, hosts, protocols, app = _boot()
    primary = app.primary_for("shared")
    gateway = protocols[0]
    for i, session in enumerate((11, 22, 33)):
        sim.schedule(
            1.0 + 0.3 * i,
            lambda s=session: gateway.inject_app_send(
                primary, KVPut(key="shared", value=s, op_id=(s, 0))
            ),
        )
    _settle(sim, protocols, horizon=20.0)
    state = protocols[primary].executor.state
    assert state.lookup("shared")[1] == 3
    versions = {
        op_id: [r.version for r in _replies(protocols[primary], op_id)]
        for op_id in ((11, 0), (22, 0), (33, 0))
    }
    flat = sorted(v for vs in versions.values() for v in vs)
    assert flat == [1, 2, 3]
