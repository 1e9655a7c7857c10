"""Duplicate suppression across GC, restart and compaction on disk.

No checkpoint copies the delivered-id set: a restore rebuilds it from
the ids of the stable log below the checkpoint plus the storage's dedup
base, the ids of the log prefix GC discarded.  A retransmission can
present a message however old, so the base must survive a SIGKILL and
a compaction of the record log.  Pid 0 runs on a live environment over
a ``FileStableStorage``; a restart is a new process object over the
reopened file, as on a node.
"""

import asyncio
import time

from repro.core.ftvc import ClockEntry
from repro.core.ftvc import FaultTolerantVectorClock as FTVC
from repro.core.recovery import AppEnvelope, DamaniGargProcess
from repro.harness.scenarios import ScriptedApp
from repro.live.env import LiveEnv
from repro.live.storage import FileStableStorage, describe
from repro.protocols.base import ProtocolConfig
from repro.runtime.message import NetworkMessage

CONFIG = ProtocolConfig(
    checkpoint_interval=1e9, flush_interval=1e9, enable_gc=True
)


class _Transport:
    def send(self, dst, msg):
        pass

    def attach(self, protocol):
        pass


def _process(path, boots):
    env = LiveEnv(
        pid=0, n=3, storage=FileStableStorage(0, path),
        transport=_Transport(), epoch=time.time(), crash_count=boots,
    )
    return DamaniGargProcess(env, ScriptedApp(), CONFIG)


def _app(seq):
    """P1's ``seq``-th message, sent from its state ``(0, seq + 1)``."""
    clock = FTVC.of([(0, 0), (0, seq + 1), (0, 0)])
    return NetworkMessage(
        msg_id=100 + seq, src=1, dst=0, kind="app",
        payload=AppEnvelope(f"m{seq}", clock, (1, seq)), send_time=0.0,
    )


def _run(path):
    protocol = _process(path, 0)
    protocol.on_start()
    for seq in range(6):
        protocol.on_network_message(_app(seq))
        if seq in (2, 4):
            protocol.take_checkpoint()
    protocol.flush_log()
    held = set(protocol._delivered_ids)
    # Every peer reports a frontier past every checkpoint: the sweep
    # keeps the newest checkpoint (after m4) and discards m0-m4.
    protocol.apply_stability({j: ClockEntry(0, 100) for j in range(3)})
    storage = protocol.storage
    assert storage.log.gc_count == 5
    assert storage.log.retained_stable_entries == 1
    assert storage.dedup_base == {(1, seq) for seq in range(5)}
    protocol.halt_periodic_tasks()

    # SIGKILL; the file reopens with the base, and so does a compaction.
    reopened = FileStableStorage(0, path)
    assert reopened.dedup_base == storage.dedup_base
    reopened._write_snapshot()
    restarted = _process(path, 1)
    assert restarted.storage.dedup_base == storage.dedup_base
    restarted.on_restart()
    assert restarted._delivered_ids == held
    # m1 was delivered before the GC anchor; presented again, it is a
    # duplicate and changes nothing.
    delivered = restarted.stats.app_delivered
    state = restarted.executor.state
    restarted.on_network_message(_app(1))
    assert restarted.stats.app_delivered == delivered
    assert restarted.executor.state == state
    assert restarted.storage.log.total_length == 6
    restarted.halt_periodic_tasks()


def test_dedup_ids_survive_gc_restart_and_compaction(tmp_path):
    path = str(tmp_path / "stable_p0.pickle")

    async def go():
        _run(path)

    asyncio.run(go())


def test_a_gc_record_journals_only_the_ids_it_discards(tmp_path):
    path = str(tmp_path / "stable_p0.pickle")

    async def go():
        protocol = _process(path, 0)
        protocol.on_start()
        frontier = {j: ClockEntry(0, 100) for j in range(3)}
        for seq in range(30):
            protocol.on_network_message(_app(seq))
            if seq % 10 == 9:
                protocol.take_checkpoint()
                protocol.apply_stability(frontier)
        protocol.halt_periodic_tasks()

    asyncio.run(go())
    with open(path, "rb") as fh:
        lines = list(describe(fh.read()))
    # Each sweep discards the ten entries below the newest checkpoint,
    # and its op holds those ten ids, not all the ids delivered so far.
    sweeps = [
        line.split("dedup+x")[1].split(",")[0]
        for line in lines if "dedup+" in line
    ]
    assert len(sweeps) == 3 and len(set(sweeps)) == 1, sweeps
    assert sweeps[0].startswith("10:"), sweeps
