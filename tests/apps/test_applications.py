"""Tests for the deterministic workload applications."""

from repro.apps import (
    BankApp,
    BankState,
    PingPongApp,
    PipelineApp,
    RandomRoutingApp,
    RoutingState,
    Transfer,
    mix64,
)
from repro.runtime.app import ProcessContext


def ctx(pid=0, n=4):
    return ProcessContext(pid, n)


class TestMix64:
    def test_deterministic(self):
        assert mix64(1, 2) == mix64(1, 2)

    def test_spreads(self):
        values = {mix64(i, 0) for i in range(1000)}
        assert len(values) == 1000

    def test_64_bit_range(self):
        for i in range(100):
            assert 0 <= mix64(i, i * 7) < 2**64


class TestRandomRoutingApp:
    def test_handle_is_pure(self):
        app = RandomRoutingApp()
        state = RoutingState(received=3, acc=42)
        payload = next(iter(self._bootstrap_items(app)))
        c1, c2 = ctx(), ctx()
        out1 = app.handle(state, payload, c1)
        out2 = app.handle(state, payload, c2)
        assert out1 == out2
        assert [(s.dst, s.payload) for s in c1.sends] == [
            (s.dst, s.payload) for s in c2.sends
        ]
        assert state.received == 3          # input untouched

    @staticmethod
    def _bootstrap_items(app):
        c = ctx(pid=0)
        app.bootstrap(0, 4, c)
        return [s.payload for s in c.sends]

    def test_bootstrap_only_on_seeds(self):
        app = RandomRoutingApp(seeds=(1,), initial_items=3)
        c0, c1 = ctx(0), ctx(1)
        app.bootstrap(0, 4, c0)
        app.bootstrap(1, 4, c1)
        assert c0.sends == []
        assert len(c1.sends) == 3

    def test_hops_decrease_and_terminate(self):
        app = RandomRoutingApp(hops=2, seeds=(0,), initial_items=1)
        item = self._bootstrap_items(app)[0]
        assert item.hops_left == 2
        c = ctx(1)
        app.handle(RoutingState(), item, c)
        forwarded = c.sends[0].payload
        assert forwarded.hops_left == 1
        c2 = ctx(2)
        app.handle(RoutingState(), forwarded, c2)
        final = c2.sends[0].payload
        assert final.hops_left == 0
        c3 = ctx(3)
        app.handle(RoutingState(), final, c3)
        assert c3.sends == []

    def test_never_routes_to_self(self):
        app = RandomRoutingApp(hops=100, seeds=(0,), initial_items=5)
        for pid in range(4):
            c = ctx(pid)
            app.bootstrap(pid, 4, c)
            for send in c.sends:
                assert send.dst != pid

    def test_validation(self):
        import pytest

        with pytest.raises(ValueError):
            RandomRoutingApp(hops=-1)
        with pytest.raises(ValueError):
            RandomRoutingApp(fanout=0)


class TestPingPong:
    def test_round_trip(self):
        app = PingPongApp(rounds=3)
        c = ctx(0, 2)
        app.bootstrap(0, 2, c)
        ping = c.sends[0].payload
        assert ping.round == 1
        c1 = ctx(1, 2)
        app.handle(0, ping, c1)
        assert c1.sends[0].dst == 0
        assert c1.sends[0].payload.round == 2

    def test_stops_at_round_limit(self):
        app = PingPongApp(rounds=2)
        from repro.apps.applications import Ping

        c = ctx(1, 2)
        app.handle(0, Ping(round=2), c)
        assert c.sends == []


class TestBankApp:
    def test_conservation_in_a_closed_exchange(self):
        """Total money (balances + in-flight) is invariant."""
        app = BankApp(initial_balance=1000, seeds=(0,))
        n = 3
        states = {pid: app.initial_state(pid, n) for pid in range(n)}
        in_flight = []
        c = ctx(0, n)
        app.bootstrap(0, n, c)       # the seed state is already pre-debited
        in_flight.extend(c.sends)

        for _ in range(200):
            if not in_flight:
                break
            send = in_flight.pop(0)
            c = ctx(send.dst, n)
            states[send.dst] = app.handle(states[send.dst], send.payload, c)
            in_flight.extend(c.sends)
            total = sum(s.balance for s in states.values()) + sum(
                s.payload.amount for s in in_flight
            )
            assert total == 3 * 1000

    def test_balance_never_negative(self):
        app = BankApp(initial_balance=100, seeds=(0,))
        state = app.initial_state(1, 3)
        for serial in range(50):
            c = ctx(1, 3)
            state = app.handle(
                state, Transfer(amount=7, serial=(0, serial % 30)), c
            )
            assert state.balance >= 0


class TestPipeline:
    def test_jobs_flow_to_sink_output(self):
        app = PipelineApp(jobs=2)
        n = 3
        c = ctx(0, n)
        app.bootstrap(0, n, c)
        assert len(c.sends) == 2
        job = c.sends[0].payload
        c1 = ctx(1, n)
        app.handle(0, job, c1)
        assert c1.sends[0].dst == 2
        final = c1.sends[0].payload
        c2 = ctx(2, n)
        app.handle(0, final, c2)
        assert c2.sends == []
        assert len(c2.outputs) == 1
        assert c2.outputs[0].value[0] == "done"

    def test_value_is_deterministic_chain_of_mixes(self):
        app = PipelineApp(jobs=1)
        c = ctx(0, 3)
        app.bootstrap(0, 3, c)
        job = c.sends[0].payload
        expected = mix64(mix64(job.value, 2), 3)
        c1, c2 = ctx(1, 3), ctx(2, 3)
        app.handle(0, job, c1)
        app.handle(0, c1.sends[0].payload, c2)
        assert c2.outputs[0].value == ("done", 0, expected)
