"""Unit tests for the process/application model and the executor."""

import pytest

from repro.runtime.app import AppExecutor, ProcessContext
from repro.runtime.trace import EventKind, SimTrace
from repro.sim import ProcessHost, SimEnv
from repro.sim.kernel import Simulator
from repro.sim.network import Network


class CountingApp:
    """Counts receives; forwards small integers onward."""

    def initial_state(self, pid, n):
        return 0

    def bootstrap(self, pid, n, ctx):
        if pid == 0:
            ctx.send(1, "seed")

    def handle(self, state, payload, ctx):
        if isinstance(payload, int) and payload > 0:
            ctx.send((ctx.pid + 1) % ctx.n, payload - 1)
        if payload == "emit":
            ctx.output(state)
        return state + 1


def make_env(n, trace=None):
    sim = Simulator()
    return SimEnv(0, sim, Network(sim, n), trace)


def make_executor(trace=None):
    env = make_env(3, trace)
    return AppExecutor(CountingApp(), 0, 3, env), env.sim


class TestProcessContext:
    def test_send_collects(self):
        ctx = ProcessContext(0, 3)
        ctx.send(1, "a")
        ctx.send(2, "b")
        assert [(s.dst, s.payload) for s in ctx.sends] == [(1, "a"), (2, "b")]

    def test_send_validates_destination(self):
        ctx = ProcessContext(0, 3)
        with pytest.raises(ValueError):
            ctx.send(3, "x")
        with pytest.raises(ValueError):
            ctx.send(-1, "x")

    def test_output_collects(self):
        ctx = ProcessContext(0, 3)
        ctx.output(42)
        assert [o.value for o in ctx.outputs] == [42]


class TestAppExecutor:
    def test_initial_uid(self):
        ex, _ = make_executor()
        assert ex.current_uid == (0, 0, 0)
        assert ex.state == 0

    def test_live_execute_advances_state_and_uid(self):
        ex, _ = make_executor()
        ex.execute("x", msg_id=1)
        assert ex.state == 1
        assert ex.step == 1
        assert ex.current_uid == (0, 0, 1)

    def test_replay_requires_uid(self):
        ex, _ = make_executor()
        with pytest.raises(ValueError):
            ex.execute("x", msg_id=1, replay=True)

    def test_replay_recreates_original_uid(self):
        ex, _ = make_executor()
        ex.execute("x", msg_id=1)
        snap_before = ex.snapshot()
        ex.execute("y", msg_id=2)
        original = ex.current_uid
        ex.restore(snap_before)
        ex.execute("y", msg_id=2, replay=True, uid=original)
        assert ex.current_uid == original
        assert ex.state == 2

    def test_restore_does_not_reset_serial(self):
        ex, _ = make_executor()
        ex.execute("x", msg_id=1)
        snap = ex.snapshot()
        ex.execute("y", msg_id=2)       # serial 2, gets undone
        ex.restore(snap)
        ex.execute("z", msg_id=3)       # fresh state: must NOT reuse serial 2
        assert ex.current_uid == (0, 0, 3)

    def test_snapshot_deep_copies_state(self):
        class ListApp:
            def initial_state(self, pid, n):
                return []

            def bootstrap(self, pid, n, ctx):
                pass

            def handle(self, state, payload, ctx):
                return state + [payload]

        ex = AppExecutor(ListApp(), 0, 2, make_env(2))
        ex.execute("a", msg_id=1)
        snap = ex.snapshot()
        ex.execute("b", msg_id=2)
        assert snap["state"] == ["a"]
        ex.restore(snap)
        assert ex.state == ["a"]

    def test_begin_incarnation_resets_serial_and_epoch(self):
        ex, _ = make_executor()
        ex.execute("x", msg_id=1)
        prev = ex.begin_incarnation(mint_tag=1, epoch=1)
        assert prev == (0, 0, 1)
        assert ex.current_uid == (0, 1, 0)
        assert ex.epoch == 1
        ex.execute("y", msg_id=2)
        assert ex.current_uid == (0, 1, 1)

    def test_new_recovery_state_mints_fresh_uid(self):
        ex, _ = make_executor()
        ex.execute("x", msg_id=1)
        snap = ex.snapshot()
        ex.execute("y", msg_id=2)
        ex.restore(snap)
        prev = ex.new_recovery_state()
        assert prev == (0, 0, 1)
        assert ex.current_uid == (0, 0, 3)   # serial 2 was consumed by "y"

    def test_trace_records_deliver_with_uids(self):
        trace = SimTrace()
        ex, _ = make_executor(trace)
        ex.execute("x", msg_id=9)
        events = trace.events(EventKind.DELIVER)
        assert len(events) == 1
        assert events[0]["msg_id"] == 9
        assert events[0]["uid"] == (0, 0, 1)
        assert events[0]["prev_uid"] == (0, 0, 0)
        assert events[0]["replay"] is False

    def test_bootstrap_returns_initial_sends(self):
        ex, _ = make_executor()
        ctx = ex.bootstrap()
        assert [(s.dst, s.payload) for s in ctx.sends] == [(1, "seed")]


class TestProcessHost:
    def make_host(self):
        sim = Simulator()
        net = Network(sim, 2)
        trace = SimTrace()
        host = ProcessHost(0, sim, net, trace)
        ProcessHost(1, sim, net, trace)

        class FakeProtocol:
            def __init__(self):
                self.received = []
                self.crashes = 0
                self.restarts = 0

            def on_start(self):
                pass

            def on_network_message(self, msg):
                self.received.append(msg.payload)

            def on_crash(self):
                self.crashes += 1

            def on_restart(self):
                self.restarts += 1

        proto = FakeProtocol()
        host.attach(proto)
        return sim, net, host, proto, trace

    def test_delivery_reaches_protocol(self):
        sim, net, host, proto, _ = self.make_host()
        net.send(1, 0, "m")
        sim.run()
        assert proto.received == ["m"]

    def test_crash_buffers_messages_until_restart(self):
        sim, net, host, proto, _ = self.make_host()
        host.crash()
        net.send(1, 0, "while-down")
        sim.run()
        assert proto.received == []
        host.restart()
        assert proto.received == ["while-down"]
        assert proto.crashes == 1 and proto.restarts == 1

    def test_crash_records_trace_and_count(self):
        sim, net, host, proto, trace = self.make_host()
        host.crash()
        host.restart()
        host.crash()
        assert host.crash_count == 2
        assert trace.count(EventKind.CRASH, pid=0) == 2

    def test_crash_idempotent_while_down(self):
        sim, net, host, proto, _ = self.make_host()
        host.crash()
        host.crash()
        assert proto.crashes == 1
        assert host.crash_count == 1

    def test_restart_noop_when_alive(self):
        sim, net, host, proto, _ = self.make_host()
        host.restart()
        assert proto.restarts == 0

    def test_attach_twice_rejected(self):
        sim, net, host, proto, _ = self.make_host()
        with pytest.raises(RuntimeError):
            host.attach(proto)

    def test_protocol_required(self):
        sim = Simulator()
        net = Network(sim, 1)
        host = ProcessHost(0, sim, net)
        with pytest.raises(RuntimeError):
            _ = host.protocol
