"""MeshTransport: delivery, acknowledgement, dedup, durable retransmit."""

import asyncio
import os
import socket

import pytest

from repro.live.storage import FileStableStorage
from repro.live.transport import MeshTransport
from repro.runtime.message import NetworkMessage


class Collector:
    """Minimal protocol: records every delivered message."""

    def __init__(self):
        self.received = []

    def on_network_message(self, msg):
        self.received.append(msg)


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
        finally:
            await a.stop()

    asyncio.run(go())


def test_blocked_link_does_not_dial_at_all():
    """A fault-blocked link polls the block flag instead of dialing --
    the partition looks like an unreachable host, not a refused port."""
    class _Blocked:
        def send_blocked(self, dst):
            return True

        def corrupt_frame(self, dst, framed):
            return framed

        def gray_penalty(self, dst, nbytes):
            return 0.0

    async def go():
        ports = _free_ports(2)
        a = MeshTransport(0, 2, ports, faults=_Blocked())
        a.attach(Collector())
        await a.start()
        try:
            a.send(1, _msg(1, 0, 1, "never sent"))
            await asyncio.sleep(0.4)
            assert a.dial_attempts == 0
        finally:
            await a.stop()

    asyncio.run(go())
