"""Corruption fuzzing against the storage record log.

The disk twin of ``tests/live/test_wire_fuzz.py``.  A damaged file has
exactly two legal outcomes when it is reopened:

- the damage is confined to the *last* record, i.e. an append that may
  never have been acknowledged: the record is cut (a torn tail) and the
  state is exactly the state after the previous barrier;
- the damage sits before a record that is still valid, i.e. inside data
  a barrier acknowledged: the storage refuses to start and names the
  offset of the damaged record.

Never a third state, and never an exception other than the refusal.
"""

import asyncio
import os
import pickle
import random
import shutil
from contextlib import nullcontext

import pytest

from repro.live.storage import (
    FileStableStorage,
    StorageCorruptionError,
    _decode,
    describe,
    scan,
)
from repro.live.framing import frame
from repro.storage.checkpoint import SEND_LOG


def _state(storage):
    return pickle.loads(pickle.dumps(storage._snapshot()))


def _history(path):
    """A log of one snapshot and a dozen deltas touching every store.

    Returns ``[(file size, durable state)]`` after each barrier, the
    empty file's fresh state first."""
    storage = FileStableStorage(0, path)
    barriers = [(0, _state(storage))]

    def ack():
        barriers.append((os.path.getsize(path), _state(storage)))

    storage.put("node_boots", 1)
    ack()
    for i in range(4):
        storage.log.append(i, 1, f"payload-{i}", meta={"clock": (i, 0)})
    storage.log.flush()
    ack()
    anchor = storage.checkpoints.take(
        1.0, {"x": 1}, 4,
        extras={"clock": (4, 0), SEND_LOG: storage.send_append(["s0"])},
    )
    ack()
    storage.log_token(("token", 1, 2), dedupe_key=(1, 2))
    ack()
    for i in range(3):
        storage.outbox.add(1, f"msg-{i}")
        ack()
    storage.outbox.ack(1, 2)
    ack()
    with storage.atomic():      # a rollback: one record
        storage.checkpoints.discard_after(storage.checkpoints.latest())
        storage.log.truncate(2)
        storage.put("stable_own", (0, 2))
    ack()
    with storage.atomic():      # a checkpoint with its flush
        for i in range(2):
            storage.log.append(4 + i, 1, f"payload-{4 + i}")
        storage.log.flush()
        storage.checkpoints.take(
            2.0, {"x": 2}, 4,
            extras={SEND_LOG: storage.send_append(["s1", "s2"])},
        )
    ack()
    with storage.atomic():      # an operator rewind: one record
        storage.put("operator_orphans", [])
        storage.checkpoints.discard_after(anchor)
        storage.send_cut_to(anchor)
        storage.log.truncate(2)
        storage.put("stable_own", (0, 1))
        storage.put("operator_rollback_audit", [])
    ack()
    storage.put_lazy("committed_outputs", {(0, 1)})
    ack()
    assert [size for size, _ in barriers] == sorted(
        {size for size, _ in barriers}
    ), "every barrier appended (no compaction inside the history)"
    return barriers


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("log") / "stable_p0.pickle")
    return path, _history(path)


def _reopen(history, tmp_path, mutate):
    path, _ = history
    copy = str(tmp_path / "stable_p0.pickle")
    shutil.copyfile(path, copy)
    with open(copy, "r+b") as fh:
        mutate(fh)
    return copy


def _assert_appends_and_reloads(copy, storage):
    storage.put("after_heal", True)
    reborn = FileStableStorage(0, copy)
    assert reborn.torn_tails_healed == 0
    assert _state(reborn) == _state(storage)


def test_truncation_anywhere_yields_a_barrier_prefix(history, tmp_path):
    """Cut the file at every byte of its last record, and at every
    record boundary before it: what loads is the longest acknowledged
    prefix that fits, never anything else."""
    _, barriers = history
    sizes = [size for size, _ in barriers]
    first_record_end = sizes[1]
    cuts = set(range(sizes[-2], sizes[-1] + 1)) | set(sizes[1:])
    cuts |= {size + 1 for size in sizes[1:-1]}
    for cut in sorted(cuts):
        copy = _reopen(history, tmp_path, lambda fh: fh.truncate(cut))
        storage = FileStableStorage(0, copy)
        whole = max(i for i, size in enumerate(sizes) if size <= cut)
        assert _state(storage) == barriers[whole][1], cut
        assert storage.torn_tails_healed == (cut != sizes[whole]), cut
        assert os.path.getsize(copy) == sizes[whole]
        _assert_appends_and_reloads(copy, storage)
    # The first record is renamed into place whole: a piece of it is not
    # a tail but damage, at offset 0.
    copy = _reopen(
        history, tmp_path, lambda fh: fh.truncate(first_record_end - 1)
    )
    with pytest.raises(StorageCorruptionError, match="offset 0"):
        FileStableStorage(0, copy)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_bit_flips_heal_the_tail_or_refuse_by_offset(
    history, tmp_path, seed
):
    _, barriers = history
    sizes = [size for size, _ in barriers]
    last = len(sizes) - 2               # index of the last record
    rng = random.Random(seed)
    for _ in range(60):
        # Half the rounds aim at the last record, which a uniform draw
        # over the file would rarely hit.
        if rng.random() < 0.5:
            flips = {rng.randrange(sizes[-2] * 8, sizes[-1] * 8)}
        else:
            flips = {
                rng.randrange(sizes[-1] * 8)
                for _ in range(rng.choice((1, 1, 3)))
            }

        def flip(fh, flips=flips):
            for bit in flips:
                fh.seek(bit // 8)
                byte = fh.read(1)[0]
                fh.seek(bit // 8)
                fh.write(bytes([byte ^ (1 << (bit % 8))]))

        copy = _reopen(history, tmp_path, flip)
        damaged = sorted(
            {
                max(i for i, size in enumerate(sizes) if size <= bit // 8)
                for bit in flips
            }
        )
        first = damaged[0]
        if first > 0 and damaged == list(range(first, last + 1)):
            # Nothing valid follows the damage: indistinguishable from
            # an append that was never acknowledged.
            storage = FileStableStorage(0, copy)
            assert _state(storage) == barriers[first][1], flips
            assert storage.torn_tails_healed == 1
            _assert_appends_and_reloads(copy, storage)
        else:
            with pytest.raises(
                StorageCorruptionError, match=f"offset {sizes[first]}\\b"
            ):
                FileStableStorage(0, copy)
            # The reader for humans refuses the same way, and cuts nothing.
            with open(copy, "rb") as fh, pytest.raises(StorageCorruptionError):
                list(describe(fh.read()))
            assert os.path.getsize(copy) == sizes[-1]


def test_garbage_after_the_last_record_is_a_torn_tail(history, tmp_path):
    _, barriers = history

    def scribble(fh):
        fh.seek(0, os.SEEK_END)
        fh.write(random.Random(7).randbytes(257))

    copy = _reopen(history, tmp_path, scribble)
    with open(copy, "rb") as fh:
        assert "TORN TAIL" in list(describe(fh.read()))[-1]
    storage = FileStableStorage(0, copy)
    assert _state(storage) == barriers[-1][1]
    assert storage.torn_tails_healed == 1
    _assert_appends_and_reloads(copy, storage)


def test_a_flipped_top_bit_of_the_first_length_is_damage_not_a_pickle(
    history, tmp_path
):
    """Byte 0 is the high byte of the first record's length: with its top
    bit set the file starts like a pickle (``\\x80``), but the record tag
    right behind the header says what it is."""

    def flip(fh):
        first = fh.read(1)[0]
        fh.seek(0)
        fh.write(bytes([first ^ 0x80]))

    copy = _reopen(history, tmp_path, flip)
    with pytest.raises(StorageCorruptionError, match="offset 0"):
        FileStableStorage(0, copy)


def test_a_record_log_of_the_previous_format_is_refused_at_offset_0(
    history, tmp_path
):
    """A ``DGL3`` file restated three more scalars in every record, and
    no reader for it is kept: its first record is damage at offset 0,
    for the loader and for the dump alike."""
    path, _ = history
    state = _state(FileStableStorage(0, path))
    state["scalars"] += (0, None, [])
    copy = tmp_path / "stable_p0.pickle"
    copy.write_bytes(frame(b"DGL3S" + pickle.dumps(state, protocol=4)))
    with pytest.raises(StorageCorruptionError, match="at offset 0;"):
        FileStableStorage(0, str(copy))
    with pytest.raises(StorageCorruptionError, match="at offset 0;"):
        list(describe(copy.read_bytes()))


# ---------------------------------------------------------------------------
# Chunked streams: truncate, GC and cut split what was pickled once
# ---------------------------------------------------------------------------
def _streams(storage):
    """The logical streams plus their chunk boundaries."""
    log = storage.log
    return (
        log._gc_offset,
        log.gc_count,
        list(log._stable),
        list(storage.sends),
        [span[:2] for span in log.chunks.spans],
        [span[:2] for span in storage._send_chunks.spans],
    )


@pytest.mark.parametrize("seed", range(6))
def test_random_truncate_gc_and_cut_reopen_to_the_same_streams(
    tmp_path, monkeypatch, seed
):
    """Flushes and send appends make chunks; truncation, GC and cuts land
    inside them as often as between them, alone or a few at a time in
    one ``atomic()`` group (one record).  After every step the file,
    reopened, holds the same streams split into the same chunks, and
    every snapshot reuses the chunk bytes memory holds."""
    monkeypatch.setattr("repro.live.storage._COMPACT_FLOOR", 1024)
    rng = random.Random(seed)
    path = str(tmp_path / "stable_p0.pickle")
    copy = str(tmp_path / "copy.pickle")
    storage = FileStableStorage(0, path)
    storage.put("node_boots", 1)
    splits = snapshots = groups = 0
    for serial in range(300):
        log = storage.log
        grouped = rng.random() < 0.4
        groups += grouped
        before = storage.dir_fsyncs, storage.persist_count
        with storage.atomic() if grouped else nullcontext():
            for _ in range(rng.randint(2, 4) if grouped else 1):
                splits += _stream_step(storage, rng, serial)
            # Send ops ride the next barrier, as a checkpoint's would.
            storage.put("serial", serial)
        if grouped:
            assert storage.persist_count == before[1] + 1
        if storage.dir_fsyncs > before[0]:
            snapshots += 1
            with open(path, "rb") as fh:
                data = fh.read()
            for *_, blob in log.chunks.spans + storage._send_chunks.spans:
                assert blob in data
        shutil.copyfile(path, copy)
        reborn = FileStableStorage(0, copy)
        assert _streams(reborn) == _streams(storage), (seed, serial)
        assert _state(reborn) == _state(storage), (seed, serial)
    assert splits > 10 and snapshots > 3 and groups > 50


def _stream_step(storage, rng, serial):
    """One random stream mutation; whether it split a chunk."""
    log = storage.log
    step = rng.choice(("flush", "flush", "send", "send", "truncate",
                       "gc", "cut"))
    if step == "flush":
        for i in range(rng.randrange(1, 6)):
            log.append(serial, 1, f"m{serial}.{i}", meta=(serial, i))
        log.flush()
    elif step == "send":
        storage.send_append(
            [(serial, i) for i in range(rng.randrange(1, 6))]
        )
    elif step == "truncate":
        keep = rng.randint(log._gc_offset, log.stable_length)
        split = any(a < keep < b for a, b, _ in log.chunks.spans)
        log.truncate(keep)
        return split
    elif step == "gc":
        log.discard_prefix(rng.randint(0, log.stable_length))
    else:
        end = rng.randint(0, len(storage.sends))
        split = any(a < end < b for a, b, _ in storage._send_chunks.spans)
        storage.send_cut(end)
        return split
    return False


# ---------------------------------------------------------------------------
# The outbox: per-link chunks, an ack watermark, a counter that never
# goes back
# ---------------------------------------------------------------------------
def _outbox_view(storage):
    outbox = storage.outbox
    return {
        dst: (list(outbox.pending(dst)), outbox.next_seq(dst))
        for dst in (1, 2)
    }


def _reopened(path, copy):
    shutil.copyfile(path, copy)
    return FileStableStorage(0, copy)


@pytest.mark.parametrize("seed", range(6))
def test_random_outbox_traffic_reopens_to_the_same_queues(
    tmp_path, monkeypatch, seed
):
    """Adds and cumulative acks on two links ride a window that only
    ``sync`` and barriers flush; compactions and crashes (a reopen that
    loses the unflushed tail) land anywhere.  Whatever the last record
    made durable reopens as the same queues and the same counters."""
    monkeypatch.setattr("repro.live.storage._COMPACT_FLOOR", 512)
    rng = random.Random(seed)
    path = str(tmp_path / "stable_p0.pickle")
    copy = str(tmp_path / "copy.pickle")

    async def go():
        storage = FileStableStorage(0, path, flush_window=60.0)
        storage.put("node_boots", 1)
        durable = _outbox_view(storage)
        issued: dict[int, set] = {1: set(), 2: set()}
        counts = {"split": 0, "compaction": 0, "crash": 0}
        for serial in range(400):
            outbox = storage.outbox
            snapshots = storage.dir_fsyncs
            dst = rng.choice((1, 2))
            step = rng.choice(("add", "add", "add", "ack", "ack", "sync",
                               "barrier", "crash"))
            if step == "add":
                for i in range(rng.randrange(1, 8)):
                    seq = outbox.add(dst, f"m{serial}.{i}")
                    assert seq not in issued[dst] or seq >= durable[dst][1]
                    issued[dst].add(seq)
            elif step == "ack":
                upto = rng.randrange(outbox.next_seq(dst))
                chunks = outbox.chunks.get(dst)
                counts["split"] += chunks is not None and any(
                    start <= upto < stop - 1 for start, stop, _ in chunks.spans
                )
                outbox.ack(dst, upto)
            elif step == "sync":
                storage.sync()
            elif step == "barrier":
                storage.put("serial", serial)
            else:
                # A crash loses the window; the durable queues come back.
                storage = FileStableStorage(0, path, flush_window=60.0)
                assert _outbox_view(storage) == durable, (seed, serial)
                counts["crash"] += 1
                continue
            counts["compaction"] += storage.dir_fsyncs > snapshots
            if not storage.pending_lazy:
                durable = _outbox_view(storage)
                reborn = _reopened(path, copy)
                assert _outbox_view(reborn) == durable, (seed, serial)
                assert _state(reborn) == _state(storage), (seed, serial)
        return counts

    counts = asyncio.run(go())
    assert counts["split"] > 10 and counts["compaction"] > 3
    assert counts["crash"] > 10


def test_an_ack_in_the_record_of_its_chunk_stays_acknowledged(tmp_path):
    """Adds and the ack covering some of them ride one record, in both
    orders the record can hold them: the ack before the chunk (it came
    inside the window), and after it (the first write of the chunk
    failed, then the ack arrived).  Reloading brings no acked entry
    back."""
    path = str(tmp_path / "stable_p0.pickle")

    async def in_the_window():
        storage = FileStableStorage(0, path, flush_window=60.0)
        for i in range(3):
            storage.outbox.add(1, f"m{i}")
        storage.outbox.ack(1, 2)
        storage.sync()

    asyncio.run(in_the_window())
    reborn = FileStableStorage(0, path)
    assert reborn.outbox.pending(1) == [(3, "m2")]
    assert reborn.outbox.next_seq(1) == 4

    os.remove(path)
    storage = FileStableStorage(0, path)
    storage.put("node_boots", 1)
    disk = {"full": True}

    def fault_hook(window):
        if disk["full"]:
            raise OSError("disk full")

    storage.fault_hook = fault_hook
    for i in range(3):
        with pytest.raises(OSError):
            storage.outbox.add(1, f"m{i}")      # sealed; the write failed
    disk["full"] = False
    storage.outbox.ack(1, 2)
    with open(path, "rb") as fh:
        _offset, payload = scan(fh.read())[0][-1]
    _kind, (_scalars, ops) = _decode(payload)
    assert [op[0] for op in ops] == ["out+", "out+", "out+", "out_ack"]
    reborn = FileStableStorage(0, path)
    assert reborn.outbox.pending(1) == [(3, "m2")]
    assert _state(reborn) == _state(storage)


def test_everything_acked_then_compacted_never_reissues_a_seq(tmp_path):
    path = str(tmp_path / "stable_p0.pickle")
    storage = FileStableStorage(0, path)
    for i in range(5):
        storage.outbox.add(1, f"m{i}")
    storage.outbox.ack(1, 5)
    storage._write_snapshot()
    with open(path, "rb") as fh:
        assert len(scan(fh.read())[0]) == 1
    reborn = FileStableStorage(0, path)
    assert reborn.outbox.pending(1) == []
    assert reborn.outbox.add(1, "next") == 6
