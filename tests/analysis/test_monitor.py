"""Tests for the online trace-discipline monitor."""

import pytest

from repro.analysis.monitor import TraceDisciplineError, TraceMonitor
from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.runtime.trace import EventKind, SimTrace
from repro.sim import ProcessHost
from repro.sim.failures import CrashPlan
from repro.sim.kernel import Simulator
from repro.sim.network import Network


def test_every_builtin_protocol_passes_the_monitor():
    """The real stack must satisfy the trace contract end to end."""
    from repro.protocols import (
        PessimisticReceiverProcess,
        SenderBasedProcess,
        StromYeminiProcess,
    )
    from repro.sim.network import DeliveryOrder

    for protocol in (
        DamaniGargProcess,
        StromYeminiProcess,
        SenderBasedProcess,
        PessimisticReceiverProcess,
    ):
        sim = Simulator()
        trace = SimTrace()
        monitor = TraceMonitor(3).install(trace)
        order = (
            DeliveryOrder.FIFO if protocol.requires_fifo
            else DeliveryOrder.RANDOM
        )
        from repro.sim.rng import RandomStreams

        network = Network(sim, 3, streams=RandomStreams(5), trace=trace,
                          order=order)
        hosts = [ProcessHost(pid, sim, network, trace) for pid in range(3)]
        config = ProtocolConfig(checkpoint_interval=8.0, flush_interval=2.5)
        protocols = [protocol(h, RandomRoutingApp(hops=30, seeds=(0,)),
                              config) for h in hosts]
        from repro.sim.failures import FailureInjector

        FailureInjector(sim, hosts, network).install(
            CrashPlan().crash(15.0, 1, 2.0)
        )
        for host in hosts:
            host.start()
        sim.run(until=60.0)
        for p in protocols:
            p.halt_periodic_tasks()
        sim.drain()
        monitor.finish()
        assert monitor.events_checked > 10


def record_deliver(trace, pid, uid, prev, replay=False):
    trace.record(0.0, EventKind.DELIVER, pid, msg_id=1, uid=uid,
                 prev_uid=prev, replay=replay)


class TestViolationsAreCaught:
    def make(self, n=2):
        trace = SimTrace()
        monitor = TraceMonitor(n).install(trace)
        return trace, monitor

    def test_broken_chain_prev(self):
        trace, _ = self.make()
        with pytest.raises(TraceDisciplineError, match="chain tip"):
            record_deliver(trace, 0, uid=(0, 0, 1), prev=(0, 9, 9))

    def test_double_minting(self):
        trace, _ = self.make()
        record_deliver(trace, 0, uid=(0, 0, 1), prev=(0, 0, 0))
        with pytest.raises(TraceDisciplineError, match="minted twice"):
            record_deliver(trace, 0, uid=(0, 0, 1), prev=(0, 0, 1))

    def test_replay_of_never_created_state(self):
        trace, _ = self.make()
        with pytest.raises(TraceDisciplineError, match="never-created"):
            record_deliver(trace, 0, uid=(0, 0, 7), prev=(0, 0, 0),
                           replay=True)

    def test_restore_to_unknown_state(self):
        trace, _ = self.make()
        with pytest.raises(TraceDisciplineError, match="not on the chain"):
            trace.record(0.0, EventKind.RESTORE, 0, ckpt_uid=(0, 3, 3),
                         reason="restart")

    def test_recovery_from_wrong_tip(self):
        trace, _ = self.make()
        record_deliver(trace, 0, uid=(0, 0, 1), prev=(0, 0, 0))
        with pytest.raises(TraceDisciplineError, match="chain tip"):
            trace.record(0.0, EventKind.RESTART, 0,
                         restored_uid=(0, 0, 0), new_uid=(0, 1, 0))

    def test_send_from_unknown_state(self):
        trace, _ = self.make()
        with pytest.raises(TraceDisciplineError, match="unknown state"):
            trace.record(0.0, EventKind.SEND, 0, msg_id=1, dst=1,
                         uid=(0, 5, 5))

    def test_dangling_restore_caught_at_finish(self):
        trace, monitor = self.make()
        record_deliver(trace, 0, uid=(0, 0, 1), prev=(0, 0, 0))
        trace.record(0.0, EventKind.RESTORE, 0, ckpt_uid=(0, 0, 0),
                     reason="restart")
        with pytest.raises(TraceDisciplineError, match="without a matching"):
            monitor.finish()

    def test_valid_recovery_sequence_passes(self):
        trace, monitor = self.make()
        record_deliver(trace, 0, uid=(0, 0, 1), prev=(0, 0, 0))
        trace.record(0.0, EventKind.RESTORE, 0, ckpt_uid=(0, 0, 0),
                     reason="restart")
        record_deliver(trace, 0, uid=(0, 0, 1), prev=(0, 0, 0), replay=True)
        trace.record(0.0, EventKind.RESTART, 0,
                     restored_uid=(0, 0, 1), new_uid=(0, 1, 0))
        monitor.finish()
        assert monitor.events_checked == 4
