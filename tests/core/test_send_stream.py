"""The Remark-1 send history as a stream on stable storage.

A checkpoint records where the stream ended; restoring it cuts the stream
back there.  The same script runs on both engines -- the simulator's
in-memory storage, and a live environment whose restart reopens its
record log from disk -- and must resend exactly what the send history
resent when every checkpoint held its own copy of it.
"""

import asyncio
import time

from repro.core.ftvc import FaultTolerantVectorClock as FTVC
from repro.core.recovery import AppEnvelope, DamaniGargProcess
from repro.core.tokens import RecoveryToken
from repro.harness.scenarios import ScriptedApp
from repro.live.env import LiveEnv
from repro.live.storage import FileStableStorage, scan
from repro.protocols.base import ProtocolConfig
from repro.runtime.message import NetworkMessage
from repro.sim.env import SimEnv
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.storage.checkpoint import SEND_LOG

APP = ScriptedApp(
    bootstrap_sends={0: [(1, "a"), (2, "b")]},
    rules={
        (0, "m1"): [(2, "c")], (0, "m2"): [(1, "d")], (0, "m3"): [(2, "e")],
    },
)
CONFIG = ProtocolConfig(
    checkpoint_interval=1e9, flush_interval=1e9, retransmit_on_token=True
)


class _Recording(DamaniGargProcess):
    """Records every retransmission as ``(dst, payload, dedup id)``."""

    resent: list

    def _transmit(self, dst, envelope, sender_uid, *, retransmit=False):
        if retransmit:
            self.resent.append((dst, envelope.payload, envelope.dedup_id))
        super()._transmit(dst, envelope, sender_uid, retransmit=retransmit)


class _Transport:
    def send(self, dst, msg):
        pass

    def attach(self, protocol):
        pass


class _Live:
    """Pid 0 on a live environment; a restart is a new process object
    over the reopened record log."""

    def __init__(self, path):
        self.path = path
        self.boots = 0
        self.resent = []

    def _protocol(self):
        env = LiveEnv(
            pid=0, n=3, storage=FileStableStorage(0, self.path),
            transport=_Transport(), epoch=time.time(),
            crash_count=self.boots,
        )
        self.boots += 1
        protocol = _Recording(env, APP, CONFIG)
        protocol.resent = self.resent
        return protocol

    def boot(self):
        protocol = self._protocol()
        protocol.on_start()
        return protocol

    def crash_and_restart(self, protocol):
        protocol.halt_periodic_tasks()
        protocol = self._protocol()
        protocol.on_restart()
        return protocol


class _Sim:
    """Pid 0 on a simulated host; a restart keeps the storage object."""

    def __init__(self):
        sim = Simulator()
        self.host = SimEnv(0, sim, Network(sim, 3))
        self.resent = []

    def boot(self):
        protocol = _Recording(self.host, APP, CONFIG)
        protocol.resent = self.resent
        self.host.start()
        return protocol

    def crash_and_restart(self, protocol):
        self.host.crash()
        self.host.restart()
        return protocol


def _app(src, seq, payload, clock):
    envelope = AppEnvelope(payload, FTVC.of(clock), (src, seq))
    return NetworkMessage(
        msg_id=100 + 10 * src + seq, src=src, dst=0, kind="app",
        payload=envelope, send_time=0.0,
    )


def _token(origin, timestamp, clock):
    token = RecoveryToken(origin, 0, timestamp, full_clock=FTVC.of(clock))
    return NetworkMessage(
        msg_id=200 + origin, src=origin, dst=0, kind="token",
        payload=token, send_time=0.0,
    )


def _script(engine):
    """Roll back to an older checkpoint, crash, restart, take a token."""
    protocol = engine.boot()
    protocol.on_network_message(_app(1, 0, "m1", [(0, 0), (0, 2), (0, 0)]))
    protocol.take_checkpoint()
    older = protocol.storage.checkpoints.latest()
    protocol.on_network_message(_app(1, 1, "m3", [(0, 0), (0, 5), (0, 0)]))
    protocol.on_network_message(_app(2, 0, "m2", [(0, 0), (0, 0), (0, 2)]))
    protocol.take_checkpoint()
    assert len(protocol.storage.sends) == older.extras[SEND_LOG].end + 2
    # P1 restored (0,3): m3 is an orphan, so is the newest checkpoint.
    protocol.on_network_message(_token(1, 3, [(0, 0), (0, 3), (0, 0)]))
    assert protocol.stats.rollbacks == 1
    assert protocol.storage.checkpoints.latest().ckpt_id == older.ckpt_id
    assert len(protocol.storage.sends) == older.extras[SEND_LOG].end
    protocol = engine.crash_and_restart(protocol)
    protocol.on_network_message(_token(2, 1, [(0, 0), (0, 0), (0, 1)]))
    protocol.halt_periodic_tasks()
    return engine.resent


#: What the copy-based send history (a full copy in every checkpoint)
#: resent for this script: ``a`` once per delivery of P1's token (live,
#: then re-applied from the token log at restart), then ``b`` and ``c``
#: to P2 -- but not ``e``, sent by the orphaned state.
RESENT = [(1, "a", (0, 0)), (1, "a", (0, 0)), (2, "b", (0, 1)),
          (2, "c", (0, 2))]


def test_simulator_resends_what_the_copied_history_did():
    assert _script(_Sim()) == RESENT


def test_live_restart_from_disk_resends_what_the_copied_history_did(
    tmp_path,
):
    async def go():
        return _script(_Live(str(tmp_path / "stable_p0.pickle")))

    assert asyncio.run(go()) == RESENT


def _second_checkpoint_record(path, before, k):
    """Bytes of the ``ckpt+`` record after ``before`` sends, a
    checkpoint, and ``k`` more sends."""

    async def go():
        protocol = _Live(path).boot()
        for i in range(before):
            protocol.inject_app_send(1, f"old{i}")
        protocol.take_checkpoint()
        for i in range(k):
            protocol.inject_app_send(1, f"new{i}")
        protocol.take_checkpoint()
        protocol.halt_periodic_tasks()

    asyncio.run(go())
    with open(path, "rb") as fh:
        records, _ = scan(fh.read())
    return len(records[-1][1])


def test_checkpoint_record_grows_with_new_sends_not_all_sends(tmp_path):
    """The ``ckpt+`` record carries the sends since the previous
    checkpoint: k new sends cost the same after 40 or 400 older ones."""
    size = {
        (before, k): _second_checkpoint_record(
            str(tmp_path / f"{before}-{k}.pickle"), before, k
        )
        for before in (40, 400)
        for k in (1, 20)
    }
    for before in (40, 400):
        assert 20 * 19 < size[before, 20] - size[before, 1] < 200 * 19
    for k in (1, 20):
        assert abs(size[400, k] - size[40, k]) < 64
