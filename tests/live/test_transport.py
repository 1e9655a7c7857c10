"""MeshTransport: delivery, acknowledgement, dedup, durable retransmit,
the redial policy (blind backoff vs. the peer's own hello), and frames
that pass the CRC without being wire frames."""

import asyncio
import os
import socket

import pytest

from repro.live import transport as transport_module
from repro.live import wire
from repro.live.framing import read_frame, write_frame
from repro.live.storage import FileStableStorage
from repro.live.transport import MeshTransport
from repro.runtime.message import NetworkMessage


class Collector:
    """Minimal protocol: records every delivered message."""

    def __init__(self):
        self.received = []

    def on_network_message(self, msg):
        self.received.append(msg)


class _Partition:
    """NodeFaults stand-in: a black hole towards every peer until healed."""

    def __init__(self):
        self.blocked = True

    def send_blocked(self, dst):
        return self.blocked

    def corrupt_frame(self, dst, framed):
        return framed

    def gray_penalty(self, dst, nbytes):
        return 0.0


def _free_ports(count):
    sockets = []
    try:
        for _ in range(count):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            sockets.append(s)
        return [s.getsockname()[1] for s in sockets]
    finally:
        for s in sockets:
            s.close()


def _msg(msg_id, src, dst, payload):
    return NetworkMessage(
        msg_id=msg_id, src=src, dst=dst, kind="app",
        payload=payload, send_time=0.0,
    )


async def _wait_until(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition not reached")
        await asyncio.sleep(0.01)


def test_basic_delivery_and_ack():
    async def go():
        ports = _free_ports(2)
        a = MeshTransport(0, 2, ports)
        b = MeshTransport(1, 2, ports)
        ca, cb = Collector(), Collector()
        a.attach(ca)
        b.attach(cb)
        await a.start()
        await b.start()
        try:
            a.send(1, _msg(1, 0, 1, "one"))
            a.send(1, _msg(2, 0, 1, "two"))
            b.send(0, _msg(3, 1, 0, "three"))
            await _wait_until(lambda: len(cb.received) == 2)
            await _wait_until(lambda: len(ca.received) == 1)
            assert [m.payload for m in cb.received] == ["one", "two"]
            assert ca.received[0].payload == "three"
            # Acks drain both outboxes.
            await _wait_until(lambda: a.unacked == 0 and b.unacked == 0)
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(go())


def test_self_send_delivers_locally():
    async def go():
        ports = _free_ports(1)
        a = MeshTransport(0, 1, ports)
        c = Collector()
        a.attach(c)
        a.send(0, _msg(1, 0, 0, "self"))
        await _wait_until(lambda: len(c.received) == 1)
        assert c.received[0].payload == "self"

    asyncio.run(go())


def test_send_before_peer_is_up_is_buffered():
    async def go():
        ports = _free_ports(2)
        a = MeshTransport(0, 2, ports)
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "early"))
            await asyncio.sleep(0.2)   # peer not listening yet
            b = MeshTransport(1, 2, ports)
            cb = Collector()
            b.attach(cb)
            await b.start()
            try:
                await _wait_until(lambda: len(cb.received) == 1)
                assert cb.received[0].payload == "early"
            finally:
                await b.stop()
        finally:
            await a.stop()

    asyncio.run(go())


def test_durable_outbox_survives_sender_restart(tmp_path):
    """A SIGKILLed sender must retransmit unacknowledged messages."""

    async def go():
        ports = _free_ports(2)
        storage_path = os.path.join(str(tmp_path), "stable_p0.pickle")

        # Incarnation 1 sends while the receiver is down, then "crashes"
        # (we just drop the transport without stopping cleanly).
        storage = FileStableStorage(0, storage_path)
        a1 = MeshTransport(0, 2, ports, boot=1, storage=storage)
        a1.attach(Collector())
        a1.send(1, _msg(1, 0, 1, "persisted"))
        assert a1.unacked == 1

        # Incarnation 2 reloads the outbox from storage and delivers.
        storage2 = FileStableStorage(0, storage_path)
        a2 = MeshTransport(0, 2, ports, boot=2, storage=storage2)
        a2.attach(Collector())
        assert a2.unacked == 1, "outbox should reload from stable storage"
        b = MeshTransport(1, 2, ports)
        cb = Collector()
        b.attach(cb)
        await a2.start()
        await b.start()
        try:
            await _wait_until(lambda: len(cb.received) == 1)
            assert cb.received[0].payload == "persisted"
            await _wait_until(lambda: a2.unacked == 0)
        finally:
            await a2.stop()
            await b.stop()

    asyncio.run(go())


def test_receiver_dedups_by_sender_boot():
    async def go():
        ports = _free_ports(2)
        b = MeshTransport(1, 2, ports)
        cb = Collector()
        b.attach(cb)
        await b.start()

        # Same boot, same seq twice: second copy acked but not delivered.
        a1 = MeshTransport(0, 2, ports, boot=1)
        a1.attach(Collector())
        await a1.start()
        try:
            a1.send(1, _msg(1, 0, 1, "m"))
            await _wait_until(lambda: len(cb.received) == 1)
            await _wait_until(lambda: a1.unacked == 0)
        finally:
            await a1.stop()

        # A NEW boot restarts seq numbering; its messages must deliver.
        a2 = MeshTransport(0, 2, ports, boot=2)
        a2.attach(Collector())
        await a2.start()
        try:
            a2.send(1, _msg(2, 0, 1, "after-restart"))
            await _wait_until(lambda: len(cb.received) == 2)
            assert cb.received[1].payload == "after-restart"
        finally:
            await a2.stop()
            await b.stop()

    asyncio.run(go())


def test_messages_before_attach_are_buffered():
    async def go():
        ports = _free_ports(1)
        a = MeshTransport(0, 1, ports)
        a.send(0, _msg(1, 0, 0, "early"))
        await asyncio.sleep(0.05)
        c = Collector()
        a.attach(c)
        await _wait_until(lambda: len(c.received) == 1)

    asyncio.run(go())


def test_double_attach_rejected():
    ports = _free_ports(1)
    a = MeshTransport(0, 1, ports)
    a.attach(Collector())
    with pytest.raises(RuntimeError):
        a.attach(Collector())


def test_reload_heals_seq_counter_behind_outbox(tmp_path):
    # A reloaded counter that fell behind the reloaded outbox would
    # re-issue a seq already occupied there, and the receiver's dedup
    # cursor would silently swallow the second message.  The counter is
    # journaled with the entries it numbers, so the reborn transport
    # never hands out a seq at or below the outbox max -- also when every
    # earlier entry was acknowledged and only the newest survived.
    path = os.path.join(str(tmp_path), "stable_p0.pickle")
    transport = MeshTransport(
        0, 2, _free_ports(2), storage=FileStableStorage(0, path)
    )
    for i in range(35):
        transport.send(1, _msg(i, 0, 1, "acked before the crash"))
    stale = _msg(900, 0, 1, "survived the crash")
    transport.send(1, stale)
    transport._outbox.ack(1, 35)

    reborn = MeshTransport(
        0, 2, _free_ports(2), boot=2, storage=FileStableStorage(0, path)
    )
    assert reborn._outbox.pending(1) == [(36, stale)]
    assert reborn._outbox.next_seq(1) == 37


def test_outbox_and_seq_persist_in_one_image(tmp_path):
    # A journaled add carries its seq, so one record covers the entry
    # and the counter -- there is no window in which one is durable
    # without the other.
    path = os.path.join(str(tmp_path), "stable_p0.pickle")
    storage = FileStableStorage(0, path)
    transport = MeshTransport(0, 2, _free_ports(2), storage=storage)
    transport.send(1, _msg(1, 0, 1, "never acked"))
    transport.send(1, _msg(2, 0, 1, "also never acked"))

    reborn = MeshTransport(
        0, 2, _free_ports(2), boot=2, storage=FileStableStorage(0, path)
    )
    assert [seq for seq, _ in reborn._outbox.pending(1)] == [1, 2]
    assert reborn._outbox.next_seq(1) == 3


def test_burst_is_delivered_in_order_and_fully_acked():
    """A batch of frames arriving in one read must produce exactly one
    cumulative ack that drains the sender's whole outbox."""

    async def go():
        ports = _free_ports(2)
        a = MeshTransport(0, 2, ports)
        b = MeshTransport(1, 2, ports)
        ca, cb = Collector(), Collector()
        a.attach(ca)
        b.attach(cb)
        await a.start()
        await b.start()
        try:
            for i in range(80):
                a.send(1, _msg(i + 1, 0, 1, f"m{i}"))
            await _wait_until(lambda: len(cb.received) == 80)
            assert [m.payload for m in cb.received] == [
                f"m{i}" for i in range(80)
            ]
            await _wait_until(lambda: a.unacked == 0)
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(go())


def test_journaled_outbox_is_retransmitted_after_reload(tmp_path):
    """Sends only append a journal entry to the storage's pending
    record; once hardened, a reloaded transport retransmits them."""

    async def go():
        ports = _free_ports(2)
        path = os.path.join(tmp_path, "stable_p0.pickle")
        storage = FileStableStorage(0, path)
        a = MeshTransport(0, 2, ports, storage=storage)
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "unacked"))   # peer never comes up
            await asyncio.sleep(0.05)
        finally:
            await a.stop()
        storage.sync()

        reloaded = FileStableStorage(0, path)
        b = MeshTransport(1, 2, ports)
        cb = Collector()
        b.attach(cb)
        a2 = MeshTransport(0, 2, ports, storage=reloaded)
        a2.attach(Collector())
        await b.start()
        await a2.start()
        try:
            await _wait_until(lambda: len(cb.received) == 1)
            assert cb.received[0].payload == "unacked"
        finally:
            await a2.stop()
            await b.stop()

    asyncio.run(go())


def test_redial_rate_is_bounded_by_capped_jittered_backoff():
    """Dialing a dead peer must back off, not busy-spin: over ~1.2s the
    dial count stays in the single digits (a tight retry loop would rack
    up hundreds) while still retrying more than once."""
    async def go():
        ports = _free_ports(2)       # port 1 is free but nobody listens
        a = MeshTransport(0, 2, ports)
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "into the void"))
            await asyncio.sleep(1.2)
            # Backoff floor 0.05 doubling to a 2.0 ceiling with full
            # jitter: worst case ~2 + sum of shrinking sleeps.
            assert 2 <= a.dial_attempts <= 25, a.dial_attempts
            # A silent peer never earns an announced redial.
            assert a.redials_on_hello == 0
        finally:
            await a.stop()

    asyncio.run(go())


def test_blocked_link_does_not_dial_at_all():
    """A fault-blocked link polls the block flag instead of dialing --
    the partition looks like an unreachable host, not a refused port."""
    async def go():
        ports = _free_ports(2)
        a = MeshTransport(0, 2, ports, faults=_Partition())
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "never sent"))
            await asyncio.sleep(0.4)
            assert a.dial_attempts == 0
        finally:
            await a.stop()

    asyncio.run(go())


# ---------------------------------------------------------------------------
# Announce-driven reconnect: the peer's hello ends the backoff sleep
# ---------------------------------------------------------------------------
@pytest.fixture
def slow_backoff(monkeypatch):
    """Every blind redial sleeps 2.5-5 s: whatever reconnects sooner in
    these tests did not get there by timer."""
    monkeypatch.setattr(transport_module, "_BACKOFF_FLOOR", 5.0)
    monkeypatch.setattr(transport_module, "_BACKOFF_CEIL", 5.0)


async def _linked_pair(ports):
    a = MeshTransport(0, 2, ports)
    b = MeshTransport(1, 2, ports)
    a.attach(Collector())
    b.attach(Collector())
    await b.start()
    await a.start()
    await _wait_until(lambda: 1 in a._linked and 0 in b._linked)
    return a, b


async def _stop_peer_and_sink_into_backoff(a, b):
    """Stop ``b``; return once ``a`` has lost the link, redialled once at
    once, been refused, and gone to sleep on its backoff."""
    dials = a.dial_attempts
    await b.stop()
    # An idle pump looks at its link only every _IDLE_POLL; a send wakes it.
    a.send(1, _msg(100, 0, 1, "queued while the peer is down"))
    await _wait_until(
        lambda: 1 not in a._linked and a.dial_attempts == dials + 1
    )
    await asyncio.sleep(0.1)


async def _say_hello(port, pid, boot):
    """What a peer's outbound link opens with, from a bare socket."""
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    await write_frame(writer, wire.hello_frame(pid, boot))
    return writer


def test_peer_hello_ends_the_backoff_sleep(slow_backoff):
    async def go():
        ports = _free_ports(2)
        a, b = await _linked_pair(ports)
        b2 = MeshTransport(1, 2, ports, boot=2)
        cb = Collector()
        b2.attach(cb)
        transitions = []
        a.link_hook = lambda what, peer: transitions.append((what, peer))
        try:
            await _stop_peer_and_sink_into_backoff(a, b)
            loop = asyncio.get_running_loop()
            restarted = loop.time()
            await b2.start()
            await _wait_until(
                lambda: len(cb.received) == 1 and a.unacked == 0, timeout=2.0
            )
            assert loop.time() - restarted < 0.2
            assert a.redials_on_hello == 1
            # One hook call per transition, none per message.
            assert transitions == [("link_down", 1), ("link_up", 1)]
        finally:
            a.link_hook = None
            await a.stop()
            await b2.stop()

    asyncio.run(go())


def test_hello_on_a_healthy_link_buys_no_redial(slow_backoff):
    async def go():
        ports = _free_ports(2)
        a, b = await _linked_pair(ports)
        try:
            dials = a.dial_attempts
            writer = await _say_hello(ports[0], pid=1, boot=1)
            await asyncio.sleep(0.2)
            writer.close()
            assert a.dial_attempts == dials
            # ...nor after the next drop: one immediate redial, refused,
            # and then the timer -- the old hello is not a credit.
            await _stop_peer_and_sink_into_backoff(a, b)
            await asyncio.sleep(0.2)
            assert a.dial_attempts == dials + 1
            assert a.redials_on_hello == 0
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(go())


def test_hello_across_a_partition_waits_for_the_heal(slow_backoff):
    async def go():
        ports = _free_ports(2)
        faults = _Partition()
        a = MeshTransport(0, 2, ports, faults=faults)
        b = MeshTransport(1, 2, ports)
        cb = Collector()
        a.attach(Collector())
        b.attach(cb)
        await a.start()
        await b.start()
        try:
            a.send(1, _msg(1, 0, 1, "held by the partition"))
            await _wait_until(lambda: 0 in b._linked)   # b said hello
            await asyncio.sleep(0.3)
            assert a.dial_attempts == 0
            faults.blocked = False
            await _wait_until(lambda: len(cb.received) == 1, timeout=2.0)
            assert a.dial_attempts == 1
        finally:
            await a.stop()
            await b.stop()

    asyncio.run(go())


# ---------------------------------------------------------------------------
# CRC-valid frames that are not wire frames: drop the link, keep the state
# ---------------------------------------------------------------------------
_NOT_WIRE_FRAMES = [
    pytest.param(b"not-a-wire-frame", id="no-magic"),
    pytest.param(bytes((wire.MAGIC,)), id="magic-only"),
    pytest.param(bytes((wire.MAGIC, 99, wire.FRAME_ACK, 1)), id="version-99"),
]


@pytest.mark.parametrize("payload", _NOT_WIRE_FRAMES)
def test_bad_ack_frame_drops_the_link_not_the_peer_loop(payload):
    """A peer that answers the hello with something that is not an ack
    costs one connection: the sender redials, keeps its unacked entry,
    and still shuts down cleanly."""
    async def go():
        ports = _free_ports(2)

        async def fake_peer(reader, writer):
            await read_frame(reader)             # the hello
            await write_frame(writer, payload)
            await reader.read()                  # until the sender hangs up
            writer.close()

        server = await asyncio.start_server(fake_peer, "127.0.0.1", ports[1])
        a = MeshTransport(0, 2, ports)
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "never acknowledged"))
            await asyncio.sleep(1.0)
            (peer_loop,) = a._tasks
            assert not peer_loop.done()
            await _wait_until(lambda: a.dial_attempts > 1, timeout=2.0)
            assert a.unacked == 1
        finally:
            await a.stop()
            server.close()
            await server.wait_closed()

    asyncio.run(go())


@pytest.mark.parametrize("after_hello", [False, True], ids=["first", "later"])
@pytest.mark.parametrize("payload", _NOT_WIRE_FRAMES)
def test_bad_inbound_frame_closes_the_connection_quietly(
    payload, after_hello, capsys
):
    async def go():
        ports = _free_ports(2)
        b = MeshTransport(1, 2, ports)
        cb = Collector()
        b.attach(cb)
        await b.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", ports[1]
            )
            seen = {}
            if after_hello:
                await write_frame(writer, wire.hello_frame(0, 1))
                await write_frame(
                    writer,
                    wire.WireEncoder().data_frame(1, _msg(1, 0, 1, "good")),
                )
                assert await read_frame(reader) == wire.ack_frame(1)
                seen = {(0, 1): 1}
            await write_frame(writer, payload)
            # The receiver hangs up: EOF, not a reply.
            assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
            writer.close()
            assert b._seen == seen
            assert len(cb.received) == len(seen)
        finally:
            await b.stop()

    asyncio.run(go())
    assert "Traceback" not in capsys.readouterr().err
