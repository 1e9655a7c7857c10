"""The reply forwarder of a replica's :class:`ServicePort`."""

import asyncio
import json
from types import SimpleNamespace

from repro.core.recovery import DamaniGargProcess
from repro.harness.conformance import (
    CONFORMANCE_SCHEDULES,
    PROTOCOL_REGISTRY,
    build_conformance_spec,
)
from repro.harness.runner import run_experiment
from repro.live.framing import parse_frame, read_frame
from repro.runtime.trace import EventKind
from repro.service.gateway import ServicePort
from repro.service.kv import KVPut, KVReply, KVServiceApp
from tests.service.test_exactly_once import _boot


class _Writer:
    def __init__(self):
        self.frames = []

    def write(self, data):
        self.frames.append(parse_frame(data))

    def close(self):
        pass


def test_reply_tail_is_held_until_a_reader_connects():
    """A restarted replica re-emits replies before any client has
    redialled its reply port.  Forwarding them to nobody dropped them:
    the forwarder must keep its place until somebody listens."""
    reply = KVReply(op_id=(7, 8), key="a", value=8, version=3)
    port = ServicePort(
        1,
        SimpleNamespace(outputs=[(0.0, reply)]),
        KVServiceApp(replicas=2),
        {"reply_ports": [0, 0]},
    )
    port._forward_replies()
    assert port.report()["replies_forwarded"] == 0

    reader = _Writer()
    port._writers.add(reader)
    port._forward_replies()
    assert port.report()["replies_forwarded"] == 1
    assert len(reader.frames) == 1 and b'"seq":8' in reader.frames[0]


# ---------------------------------------------------------------------------
# Output-driven forwarding
# ---------------------------------------------------------------------------
def _shard(**config):
    """A simulated shard: gateway pid 0, replicas 1-2."""
    sim, _, _, protocols, app = _boot(n=3, **config)
    return sim, protocols, app


def _put(sim, gateway, primary, at, seq):
    sim.schedule(
        at,
        lambda: gateway.inject_app_send(
            primary, KVPut(key="a", value=seq, op_id=(7, seq))
        ),
    )


async def _attached(protocols, app):
    """The primary's reply port, started, with one in-process reader."""
    primary = app.primary_for("a")
    port = ServicePort(
        primary, protocols[primary], app, {"reply_ports": [0, 0]}
    )
    await port.start()
    reader = _Writer()
    port._writers.add(reader)
    return primary, port, reader


def test_a_delivered_reply_reaches_the_reader_in_the_next_loop_turn():
    async def go():
        sim, protocols, app = _shard()
        primary, port, reader = await _attached(protocols, app)
        _put(sim, protocols[0], primary, 1.0, 0)
        sim.run(until=5.0)      # the delivery emits inside this call
        assert len(protocols[primary].outputs) == 1
        assert reader.frames == []
        await asyncio.sleep(0)
        assert [json.loads(f)["seq"] for f in reader.frames] == [0]
        report = port.report()
        assert report["forward_passes"] == 1
        assert 0.0 < report["forward_delay_mean_ms"] <= (
            report["forward_delay_max_ms"]
        )
        await port.stop()
        assert protocols[primary].output_listener is None

    asyncio.run(go())


def test_an_output_committed_by_a_stability_sweep_is_forwarded_too():
    async def go():
        sim, protocols, app = _shard(commit_outputs=True)
        primary, port, reader = await _attached(protocols, app)
        _put(sim, protocols[0], primary, 1.0, 0)
        sim.run(until=5.0)
        await asyncio.sleep(0)
        # Held until stable: nothing appended, nothing written.
        assert protocols[primary].outputs == [] and reader.frames == []
        for protocol in protocols:
            protocol.gossip_tick()
        sim.run(until=6.0)      # the frontier reports arrive and sweep
        assert len(protocols[primary].outputs) == 1
        await asyncio.sleep(0)
        assert [json.loads(f)["seq"] for f in reader.frames] == [0]
        assert port.report()["forward_passes"] == 1
        await port.stop()

    asyncio.run(go())


def test_a_batch_of_deliveries_costs_one_forward_pass():
    async def go():
        sim, protocols, app = _shard()
        primary, port, reader = await _attached(protocols, app)
        notified = []
        listener = protocols[primary].output_listener
        protocols[primary].output_listener = lambda: (
            notified.append(1), listener()
        )
        for seq in range(6):
            _put(sim, protocols[0], primary, 1.0 + 0.1 * seq, seq)
        sim.run(until=5.0)      # six deliveries in one loop turn
        await asyncio.sleep(0)
        assert len(notified) == 6
        assert [json.loads(f)["seq"] for f in reader.frames] == list(range(6))
        assert port.report()["forward_passes"] == 1
        await port.stop()

    asyncio.run(go())


async def _dial(port):
    """Connect to a started port over TCP; returns (reader, writer)."""
    host, number = port._server.sockets[0].getsockname()[:2]
    reader, writer = await asyncio.open_connection(host, number)
    hello = json.loads(await read_frame(reader))
    assert hello["role"] == "reply"
    return reader, writer


def _fake_replica():
    return SimpleNamespace(outputs=[], output_listener=None)


def _emit(protocol, seq):
    protocol.outputs.append(
        (0.0, KVReply(op_id=(7, seq), key="a", value=seq, version=seq + 1))
    )
    protocol.output_listener()


def test_an_idle_connected_replica_makes_no_forward_passes():
    async def go():
        protocol = _fake_replica()
        port = ServicePort(
            1, protocol, KVServiceApp(replicas=2), {"reply_ports": [0, 0]}
        )
        await port.start()
        reader, writer = await _dial(port)
        _emit(protocol, 0)
        assert json.loads(await read_frame(reader))["seq"] == 0
        assert port.report()["forward_passes"] == 1
        await asyncio.sleep(0.3)
        assert port.report()["forward_passes"] == 1
        writer.close()
        await port.stop()

    asyncio.run(go())


def test_a_held_tail_is_flushed_when_a_reader_connects():
    async def go():
        protocol = _fake_replica()
        port = ServicePort(
            1, protocol, KVServiceApp(replicas=2), {"reply_ports": [0, 0]}
        )
        await port.start()
        _emit(protocol, 0)
        _emit(protocol, 1)
        await asyncio.sleep(0)
        assert port.report()["replies_forwarded"] == 0   # nobody listens
        reader, writer = await _dial(port)
        seqs = [
            json.loads(await asyncio.wait_for(read_frame(reader), 1.0))["seq"]
            for _ in range(2)
        ]
        assert seqs == [0, 1]
        report = port.report()
        assert report["replies_forwarded"] == 2
        assert report["forward_passes"] == 1
        writer.close()
        await port.stop()

    asyncio.run(go())


def test_a_listener_under_the_simulator_fires_once_per_emitting_step():
    """The listener only observes: setting one leaves every conformance
    run's ground truth identical, and it fires once per step that
    emitted outputs, not once per output."""
    for schedule in CONFORMANCE_SCHEDULES:
        fired = []

        class Listened(DamaniGargProcess):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.output_listener = lambda pid=self.pid: fired.append(pid)

        plain = run_experiment(
            build_conformance_spec(PROTOCOL_REGISTRY["damani-garg"], schedule)
        )
        listened = run_experiment(build_conformance_spec(Listened, schedule))
        assert listened.trace.signature() == plain.trace.signature()
        steps = {
            (e.pid, e["uid"]) for e in plain.trace.events(EventKind.OUTPUT)
        }
        assert fired and len(fired) == len(steps)
        assert sorted(fired) == sorted(pid for pid, _ in steps)
