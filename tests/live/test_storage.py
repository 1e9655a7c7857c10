"""FileStableStorage: durability across simulated SIGKILLs.

A "crash" here is simply dropping the object and constructing a fresh one
over the same file -- exactly what a restarted live node does.
"""

import os
import pickle
import re

import pytest

from repro.core.tokens import RecoveryToken
from repro.live.storage import FileStableStorage, _size, scan
from repro.runtime.message import NetworkMessage
from repro.storage.checkpoint import SEND_LOG
from repro.storage.stable import StableStorage


@pytest.fixture
def path(tmp_path):
    return os.path.join(str(tmp_path), "stable_p0.pickle")


def test_fresh_storage_creates_no_file_until_a_write(path):
    FileStableStorage(0, path)
    assert not os.path.exists(path)


def test_kv_and_tokens_survive_reload(path):
    storage = FileStableStorage(0, path)
    storage.put("node_boots", 3)
    token = RecoveryToken(origin=1, version=2, timestamp=7)
    storage.log_token(token)

    reborn = FileStableStorage(0, path)
    assert reborn.get("node_boots") == 3
    assert reborn.tokens == [token]


def test_checkpoints_survive_reload(path):
    storage = FileStableStorage(0, path)
    ckpt = storage.checkpoints.take(1.5, ("snapshot",), 0, extras={"v": 1})
    reborn = FileStableStorage(0, path)
    latest = reborn.checkpoints.latest()
    assert latest.snapshot == ("snapshot",)
    assert latest.extras == {"v": 1}
    assert latest.ckpt_id == ckpt.ckpt_id
    # Ids keep advancing, they do not restart and collide.
    newer = reborn.checkpoints.take(2.0, ("snapshot2",), 0)
    assert newer.ckpt_id > ckpt.ckpt_id


def test_stable_log_survives_but_volatile_buffer_does_not(path):
    storage = FileStableStorage(0, path)
    storage.log.append(1, 1, "flushed")
    storage.log.flush()
    storage.log.append(2, 1, "unflushed")   # never flushed: must die

    reborn = FileStableStorage(0, path)
    entries = reborn.log.stable_entries()
    assert [e.payload for e in entries] == ["flushed"]
    assert reborn.log.volatile_length == 0
    assert reborn.log.stable_length == 1


def test_mid_write_crash_leaves_previous_image(path):
    storage = FileStableStorage(0, path)
    storage.put("k", "old")
    # Simulate dying mid-compaction: a half-written temp file next to a
    # good log.  The loader must read the good file and ignore the temp.
    with open(path + ".tmp", "wb") as fh:
        fh.write(b"garbage that is not a pickle")
    reborn = FileStableStorage(0, path)
    assert reborn.get("k") == "old"


def test_wrong_pid_is_rejected(path):
    storage = FileStableStorage(0, path)
    storage.put("k", 1)
    with pytest.raises(RuntimeError, match="belongs to pid 0"):
        FileStableStorage(1, path)


def test_unknown_format_version_is_rejected(path):
    # A whole-image pickle from before the record log: refused, not read.
    with open(path, "wb") as fh:
        pickle.dump({"version": 3, "pid": 0}, fh)
    with pytest.raises(RuntimeError, match="format"):
        FileStableStorage(0, path)


def test_persist_count_tracks_durable_mutations_only(path):
    storage = FileStableStorage(0, path)
    base = storage.persist_count
    storage.log.append(1, 1, "volatile")      # volatile: no persist
    assert storage.persist_count == base
    storage.log.flush()                        # stable mutation: persists
    assert storage.persist_count == base + 1
    storage.put("k", 1)
    assert storage.persist_count == base + 2


def test_atomic_group_writes_one_record_at_its_outermost_exit(path):
    storage = FileStableStorage(0, path)
    storage.put("seed", 1)                      # the snapshot record
    with storage.atomic():
        storage.log.append(1, 1, "a")
        storage.log.flush()
        with storage.atomic():                  # nested: no record yet
            storage.checkpoints.take(1.0, {}, 1)
        storage.put("stable_own", (0, 1))
        storage.sync()                          # deferred as well
        assert storage.persist_count == 1
    assert storage.persist_count == 2
    assert len(_records(path)) == 2
    reborn = FileStableStorage(0, path)
    assert reborn.log.stable_length == 1
    assert [c.log_position for c in reborn.checkpoints] == [1]
    assert reborn.get("stable_own") == (0, 1)


def test_atomic_group_that_raises_writes_no_record(path):
    """The transition's ops stay pending, as after a failed persist, and
    the next record carries them; nothing of it lands on its own."""
    storage = FileStableStorage(0, path)
    storage.put("seed", 1)
    with pytest.raises(RuntimeError):
        with storage.atomic():
            storage.put("half", 1)
            raise RuntimeError("transition failed")
    assert storage.persist_count == 1
    assert FileStableStorage(0, path).get("half") is None
    storage.put("next", 1)
    assert FileStableStorage(0, path).get("half") == 1


def test_in_memory_atomic_group_is_inert():
    storage = StableStorage(0)
    with storage.atomic():
        storage.put("k", 1)
    assert storage.get("k") == 1 and storage.sync_writes == 1


# ---------------------------------------------------------------------------
# Group commit (flush_window > 0)
# ---------------------------------------------------------------------------
def test_window_coalesces_lazy_writes_into_one_fsync(path):
    import asyncio

    async def go():
        storage = FileStableStorage(0, path, flush_window=0.05)
        storage.put("seed", 1)                  # baseline image on disk
        base = storage.persist_count
        for i in range(5):
            storage.put_lazy("lazy", i)
        assert storage.persist_count == base    # still inside the window
        await asyncio.sleep(0.15)
        assert storage.persist_count == base + 1
        assert storage.window_flushes == 1
        return storage

    asyncio.run(go())
    reborn = FileStableStorage(0, path)
    assert reborn.get("lazy") == 4


def test_sync_hardens_the_window_immediately(path):
    import asyncio

    async def go():
        storage = FileStableStorage(0, path, flush_window=10.0)
        storage.put_lazy("k", "value")
        storage.sync()                          # clean-shutdown barrier
        base = storage.persist_count
        storage.sync()                          # nothing dirty: no fsync
        assert storage.persist_count == base

    asyncio.run(go())
    assert FileStableStorage(0, path).get("k") == "value"


def test_durable_barrier_hardens_pending_lazy_writes(path):
    import asyncio

    async def go():
        storage = FileStableStorage(0, path, flush_window=10.0)
        storage.put_lazy("lazy", "pending")
        storage.put("hard", "barrier")          # synchronous write
        # The barrier's record carried the pending lazy write with it,
        # and the scheduled window flush found nothing left to do.
        await asyncio.sleep(0)

    asyncio.run(go())
    reborn = FileStableStorage(0, path)
    assert reborn.get("lazy") == "pending"
    assert reborn.get("hard") == "barrier"


def test_lazy_write_without_event_loop_persists_immediately(path):
    storage = FileStableStorage(0, path, flush_window=0.05)
    storage.put_lazy("k", 1)                    # no loop: fall back to sync
    assert FileStableStorage(0, path).get("k") == 1


def test_zero_window_keeps_one_fsync_per_mutation(path):
    storage = FileStableStorage(0, path)
    base = storage.persist_count
    storage.put_lazy("a", 1)
    storage.put_lazy("b", 2)
    assert storage.persist_count == base + 2
    assert storage.window_flushes == 0


def test_log_token_dedupes_by_key_across_reloads(path):
    storage = FileStableStorage(0, path)
    token = RecoveryToken(origin=1, version=2, timestamp=7)
    assert storage.log_token(token, dedupe_key=(1, 2)) is True
    base = storage.persist_count
    assert storage.log_token(token, dedupe_key=(1, 2)) is False
    assert storage.persist_count == base        # duplicate: no fsync
    assert storage.tokens == [token]
    assert storage.token_log_dedups == 1

    reborn = FileStableStorage(0, path)
    assert reborn.log_token(token, dedupe_key=(1, 2)) is False
    assert reborn.tokens == [token]


def _msg(msg_id, payload):
    return NetworkMessage(
        msg_id=msg_id, src=0, dst=1, kind="app", payload=payload,
        send_time=0.0,
    )


def _records(path):
    with open(path, "rb") as fh:
        return scan(fh.read(), path)[0]


def test_window_writes_one_record_however_many_lazy_writes(path):
    """Lazy kv writes and outbox add / ack cost an O(1) journal entry
    each; the window hardens the whole burst as a single record."""
    import asyncio

    async def go():
        storage = FileStableStorage(0, path, flush_window=0.05)
        storage.put("seed", 1)                  # the file's snapshot record
        for i in range(3):
            storage.put_lazy("lazy", i)
            storage.outbox.add(1, _msg(i, f"m{i}"))
        storage.outbox.ack(1, 2)
        assert len(_records(path)) == 1         # still inside the window
        await asyncio.sleep(0.15)
        return storage

    storage = asyncio.run(go())
    assert len(_records(path)) == 2
    assert storage.window_flushes == 1
    assert storage.lazy_writes == 7


def test_outbox_journal_survives_reload(path):
    storage = FileStableStorage(0, path)
    for i in range(3):
        assert storage.outbox.add(1, _msg(i, f"m{i}")) == i + 1
    storage.outbox.ack(1, 2)                    # window 0: each one a record

    reloaded = FileStableStorage(0, path)
    assert reloaded.outbox.pending(1) == [(3, _msg(2, "m2"))]
    # The counter is durable with the entries it numbered: a re-issued
    # seq would be swallowed by the receiver's dedup cursor.
    assert reloaded.outbox.next_seq(1) == 4
    assert reloaded.outbox.add(1, _msg(9, "next")) == 4


def test_sync_barrier_hardens_pending_outbox_records(path):
    storage = FileStableStorage(0, path, flush_window=10.0)

    async def go():
        storage.outbox.add(1, _msg(1, "parked in the window"))
        assert storage.pending_lazy
        storage.sync()
        assert not storage.pending_lazy

    import asyncio

    asyncio.run(go())
    assert len(FileStableStorage(0, path).outbox) == 1


# ---------------------------------------------------------------------------
# Regression: a failed persist must not silently drop the lazy tail
# ---------------------------------------------------------------------------
def _failing_once(monkeypatch):
    """Make the next data fsync raise -- after the record's bytes were
    written -- then recover."""
    real = os.fsync
    calls = {"failed": False}

    def flaky(fd):
        if not calls["failed"]:
            calls["failed"] = True
            raise OSError("disk full")
        return real(fd)

    monkeypatch.setattr(os, "fsync", flaky)
    return calls


def test_failed_persist_restores_dirty_flag(path, monkeypatch):
    """Pre-fix, ``_persist`` cleared ``_dirty`` before the write: a
    transient I/O error dropped the pending lazy tail forever."""
    storage = FileStableStorage(0, path, flush_window=10.0)
    _failing_once(monkeypatch)
    with pytest.raises(OSError):
        storage.put_lazy("lazy", "precious")   # no loop: persists now
    assert storage.pending_lazy                # still owed to disk
    assert not os.path.exists(path)            # the create never renamed
    storage.sync()                             # retry succeeds
    assert not storage.pending_lazy
    assert FileStableStorage(0, path).get("lazy") == "precious"


def test_failed_window_persist_reschedules_and_retries(path, monkeypatch):
    """Pre-fix, the window timer was cancelled before the write: a
    failed window flush left the dirty tail with no timer to retry it.
    The failed append's bytes are cut before the retry writes."""
    import asyncio

    async def go():
        storage = FileStableStorage(0, path, flush_window=0.05)
        storage.put("seed", 1)
        good = os.path.getsize(path)
        _failing_once(monkeypatch)
        storage.put_lazy("lazy", "precious")
        await asyncio.sleep(0.08)              # window fires; fsync fails
        assert storage.pending_lazy
        assert storage._flush_handle is not None   # rescheduled
        assert os.path.getsize(path) > good    # unacknowledged bytes
        await asyncio.sleep(0.15)              # retry window fires
        assert not storage.pending_lazy
        assert storage.window_flushes == 2

    asyncio.run(go())
    assert len(_records(path)) == 2            # no torn bytes in between
    reborn = FileStableStorage(0, path)
    assert reborn.get("lazy") == "precious"
    assert reborn.torn_tails_healed == 0


def test_crash_after_a_failed_append_heals_the_torn_tail(path, monkeypatch):
    storage = FileStableStorage(0, path)
    storage.put("k", "acknowledged")
    _failing_once(monkeypatch)
    with pytest.raises(OSError):
        storage.put("k", "never acknowledged")
    # SIGKILL before any retry: the bytes of the failed append are a tail.
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 3)
    reborn = FileStableStorage(0, path)
    assert reborn.get("k") == "acknowledged"
    assert reborn.torn_tails_healed == 1
    reborn.put("k", "after the heal")
    again = FileStableStorage(0, path)
    assert again.get("k") == "after the heal"
    assert again.torn_tails_healed == 0


# ---------------------------------------------------------------------------
# Regression: the rename itself must be made durable
# ---------------------------------------------------------------------------
def test_persist_fsyncs_the_directory(path, monkeypatch):
    """``os.replace`` swaps the directory entry, but only a directory
    fsync makes the swap survive a host crash.  Pre-fix there was none.
    The renames are the file's creation and every compaction; an append
    changes no directory entry and fsyncs only the file."""
    monkeypatch.setattr("repro.live.storage._COMPACT_FLOOR", 0)
    storage = FileStableStorage(0, path)
    storage.put("k", 1)                        # creates the file
    assert (storage.persist_count, storage.dir_fsyncs) == (1, 1)
    storage.put("big", "x" * 4096)             # appended
    assert (storage.persist_count, storage.dir_fsyncs) == (2, 1)
    assert len(_records(path)) == 2
    storage.put("k", 2)                        # deltas outweigh the snapshot
    assert (storage.persist_count, storage.dir_fsyncs) == (3, 2)
    assert len(_records(path)) == 1
    assert FileStableStorage(0, path).get("k") == 2


# ---------------------------------------------------------------------------
# Regression: observability counters must survive a reload
# ---------------------------------------------------------------------------
def test_write_counters_survive_reload(path):
    """Pre-fix, ``_load`` dropped lazy_writes / window_flushes /
    token_log_dedups, so every restart zeroed the node's I/O telemetry."""
    import asyncio

    async def go():
        storage = FileStableStorage(0, path, flush_window=0.05)
        storage.put_lazy("lazy", 1)
        await asyncio.sleep(0.15)              # one window flush
        token = RecoveryToken(origin=1, version=2, timestamp=7)
        storage.log_token(token, dedupe_key=(1, 2))
        storage.log_token(token, dedupe_key=(1, 2))   # deduped, no write
        storage.put("barrier", 1)   # counters ride the next barrier
        return storage

    storage = asyncio.run(go())
    assert (storage.lazy_writes, storage.window_flushes,
            storage.token_log_dedups) == (1, 1, 1)

    reborn = FileStableStorage(0, path)
    assert reborn.lazy_writes == 1
    assert reborn.window_flushes == 1
    assert reborn.token_log_dedups == 1


# ---------------------------------------------------------------------------
# Regression: a committed output must be written, not ride along by accident
# ---------------------------------------------------------------------------
def test_committed_output_is_durable_without_an_unrelated_barrier(path):
    """``apply_stability`` grew the ``committed_outputs`` set it had
    fetched with ``get`` and never wrote it back: the whole-image pickle
    made it durable at the next unrelated barrier, a record log never
    would.  It is its own lazy kv record now."""
    import asyncio
    import time

    from repro.apps.applications import PipelineApp
    from repro.core.recovery import DamaniGargProcess
    from repro.live.env import LiveEnv
    from repro.protocols.base import ProtocolConfig

    class _Transport:
        def send(self, dst, msg):
            pass

        def attach(self, protocol):
            pass

    async def go():
        storage = FileStableStorage(0, path, flush_window=10.0)
        env = LiveEnv(
            pid=0, n=2, storage=storage, transport=_Transport(),
            epoch=time.time(),
        )
        process = DamaniGargProcess(
            env, PipelineApp(jobs=1), ProtocolConfig(commit_outputs=True)
        )
        key = (process.executor.current_uid, 0)
        process._pending_outputs.append((key, process.clock, "out"))
        frontier = dict(enumerate(process.clock))
        process.apply_stability(frontier)
        assert len(process.outputs) == 1
        storage.sync()              # the window; no other barrier follows
        return key

    key = asyncio.run(go())
    assert key in FileStableStorage(0, path).get("committed_outputs")


# ---------------------------------------------------------------------------
# python -m repro.live.storage PATH
# ---------------------------------------------------------------------------
def test_cli_prints_one_line_per_record(path):
    """A run directory's durable history is readable without a debugger:
    offset, bytes, what each record holds, and a torn tail if the file
    has one -- read-only."""
    import subprocess
    import sys

    from repro.live.rollback import rollback_storage
    from repro.live.storage import describe

    storage = FileStableStorage(0, path)
    storage.put("node_boots", 1)
    with storage.atomic():
        storage.log.append(1, 1, "a")
        storage.log.append(2, 1, "b")
        storage.log.flush()
        storage.put("stable_own", (0, 2))
    history = storage.send_append(["s0", "s1", "s2"])
    storage.checkpoints.take(
        1.0, {}, 2, extras={SEND_LOG: history, "clock": {0: (0, 2)}}
    )
    with storage.atomic():
        storage.log.append(3, 1, "c")
        storage.log.flush()
        history = storage.send_append(["s3"])
        storage.checkpoints.take(2.0, {}, 3, extras={SEND_LOG: history})
    rollback_storage(storage, at=1.5, reason="drill", witness="ops")
    storage.send_cut(1)
    storage.put("node_boots", 2)
    with open(path, "rb") as fh:
        deltas = list(describe(fh.read()))[1:]
    assert len(deltas) == 5
    # One transition, one record.
    assert re.search(r" delta log\+x2:\d+B,kv:stable_ownx1:\d+B$", deltas[0])
    # The sends ride the checkpoint's record.
    assert re.search(r" delta send\+x3:\d+B,ckpt\+x1:\d+B$", deltas[1])
    # The operator's rewind is one record too.
    assert re.search(
        r" delta kv:operator_orphansx1:\d+B,ckpt_afterx1:\d+B,"
        r"send_cutx1:\d+B,log_truncatex1:\d+B,kv:stable_ownx1:\d+B,"
        r"kv:operator_rollback_auditx1:\d+B$",
        deltas[3],
    )
    # A cut rides the next record.
    assert re.search(
        r" delta send_cutx1:\d+B,kv:node_bootsx1:\d+B$", deltas[4]
    )

    async def window():
        # One flush window: three adds, an ack of the first, one chunk
        # of the two still unacknowledged.
        storage.flush_window = 60.0
        for i in range(3):
            storage.outbox.add(1, f"o{i}")
        storage.outbox.ack(1, 1)
        storage.sync()
        storage.flush_window = 0.0

    import asyncio

    asyncio.run(window())
    with open(path, "rb") as fh:
        last = list(describe(fh.read()))[-1]
    assert re.search(r" delta out_ackx1:\d+B,out\+x2:\d+B$", last)

    storage._write_snapshot()
    storage.put("stable_own", (0, 3))
    with open(path, "ab") as fh:
        fh.write(b"torn")
    size = os.path.getsize(path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "repro.live.storage", path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    # The snapshot: the message log and the send stream with their
    # journaled chunks (the cut re-pickled the first send chunk).
    assert lines[0].startswith("offset=0 ") and "snapshot pid=0" in lines[0]
    assert re.search(
        r" checkpoints=1:\d+B log=\[0,2\):\d+B log_chunks=1 "
        r"sends=1:\d+B send_chunks=1 ", lines[0]
    )
    assert re.search(r" outbox=2:\d+B out_chunks=1$", lines[0])
    assert re.search(r" delta kv:stable_ownx1:\d+B$", lines[1])
    assert "TORN TAIL" in lines[2]
    assert os.path.getsize(path) == size        # looked, did not heal


def test_cli_sizes_read_in_bytes_then_kilobytes():
    assert (_size(0), _size(1023), _size(1024)) == ("0B", "1023B", "1KB")
    assert _size(1_122_000) == "1096KB"


# ---------------------------------------------------------------------------
# Streams journaled once
# ---------------------------------------------------------------------------
def test_ckpt_after_naming_a_missing_checkpoint_is_refused(path):
    from repro.live.storage import StorageCorruptionError, _DELTA, _encode

    storage = FileStableStorage(0, path)
    storage.checkpoints.take(1.0, {}, 0)
    with open(path, "ab") as fh:
        fh.write(_encode(_DELTA, (storage._scalars(), [("ckpt_after", 99)])))
    with pytest.raises(StorageCorruptionError, match=re.escape(path)):
        FileStableStorage(0, path)


def test_compaction_snapshot_reuses_the_journaled_chunk_bytes(path):
    """Each flush and each send append is pickled once: the snapshot
    holds the very bytes the delta records carried."""
    from repro.live.storage import _decode

    storage = FileStableStorage(0, path)
    storage.put("node_boots", 1)        # the file's first snapshot
    for batch in range(3):
        for i in range(4):
            storage.log.append(i, 1, f"m{batch}.{i}", meta=(batch, i))
        storage.log.flush()
        history = storage.send_append([("sent", batch, i) for i in range(5)])
        storage.checkpoints.take(float(batch), {}, storage.log.stable_length,
                                 extras={SEND_LOG: history})
    with open(path, "rb") as fh:
        records, _ = scan(fh.read())
    journaled = [
        op[1]
        for _offset, payload in records[1:]
        for op in _decode(payload)[1][1]
        if op[0] in ("log+", "send+")
    ]
    assert len(journaled) == 6
    storage._write_snapshot()
    with open(path, "rb") as fh:
        data = fh.read()
    (snapshot,), _ = scan(data)
    assert all(blob in snapshot[1] for blob in journaled)
    reborn = FileStableStorage(0, path)
    assert reborn.log._stable == storage.log._stable
    assert reborn.sends == storage.sends
    assert reborn.log.chunks.spans == storage.log.chunks.spans


@pytest.mark.parametrize("compact", [False, True], ids=["deltas", "snapshot"])
def test_reopened_checkpoints_read_their_send_history(path, compact):
    """A checkpoint's send history pickles as its end; reloading binds
    it back to the stream, so every retained checkpoint reads the sends
    made before it, from the delta records and from a snapshot alike."""
    storage = FileStableStorage(0, path)
    for batch in range(3):
        history = storage.send_append([("sent", batch, i) for i in range(2)])
        storage.checkpoints.take(float(batch), {}, 0,
                                 extras={SEND_LOG: history})
    if compact:
        storage._write_snapshot()
    reborn = FileStableStorage(0, path)
    assert [list(c.extras[SEND_LOG]) for c in reborn.checkpoints] == [
        storage.sends[:2], storage.sends[:4], storage.sends
    ]
    assert list(reborn.checkpoints) == list(storage.checkpoints)
