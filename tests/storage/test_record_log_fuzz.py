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

import os
import pickle
import random
import shutil

import pytest

from repro.live.storage import (
    FileStableStorage,
    StorageCorruptionError,
    describe,
)
from repro.storage.intents import ROLLBACK


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
    storage.checkpoints.take(1.0, {"x": 1}, 4, extras={"clock": (4, 0)})
    ack()
    storage.log_token(("token", 1, 2), dedupe_key=(1, 2))
    ack()
    for i in range(3):
        storage.outbox.add(1, f"msg-{i}")
        ack()
    storage.outbox.ack(1, 2)
    ack()
    intent = storage.begin_intent(ROLLBACK, anchor_ckpt_id=0, truncate_at=2)
    storage.advance_intent(intent, "log_flushed")
    storage.checkpoints.discard_after(storage.checkpoints.latest())
    ack()
    storage.advance_intent(intent, "log_truncated")
    storage.log.truncate(2)
    ack()
    storage.commit_intent(intent)
    storage.put("stable_own", (0, 2))
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
    inside them as often as between them.  After every step the file,
    reopened, holds the same streams split into the same chunks, and
    every snapshot reuses the chunk bytes memory holds."""
    monkeypatch.setattr("repro.live.storage._COMPACT_FLOOR", 1024)
    rng = random.Random(seed)
    path = str(tmp_path / "stable_p0.pickle")
    copy = str(tmp_path / "copy.pickle")
    storage = FileStableStorage(0, path)
    storage.put("node_boots", 1)
    splits = snapshots = 0
    for serial in range(300):
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
            splits += any(a < keep < b for a, b, _ in log.chunks.spans)
            log.truncate(keep)
        elif step == "gc":
            log.discard_prefix(rng.randint(0, log.stable_length))
        else:
            end = rng.randint(0, len(storage.sends))
            spans = storage._send_chunks.spans
            splits += any(a < end < b for a, b, _ in spans)
            storage.send_cut(end)
        # Send ops ride the next barrier, as a checkpoint's would.
        before = storage.dir_fsyncs
        storage.put("serial", serial)
        if storage.dir_fsyncs > before:
            snapshots += 1
            with open(path, "rb") as fh:
                data = fh.read()
            for *_, blob in log.chunks.spans + storage._send_chunks.spans:
                assert blob in data
        shutil.copyfile(path, copy)
        reborn = FileStableStorage(0, copy)
        assert _streams(reborn) == _streams(storage), (seed, serial)
        assert _state(reborn) == _state(storage), (seed, serial)
    assert splits > 10 and snapshots > 3
