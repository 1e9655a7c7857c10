"""Seeded equivalence: the folded record log equals the live object.

Random sequences of *every* durable operation -- log flush / truncate /
prefix discard with the dedup ids it drops, checkpoint take / suffix
discard / prefix collection, token logging with dedupe, ``put`` /
``put_lazy``, outbox add / ack,
rewinds (a checkpoint suffix discard, send cut, log truncation and kv
put in one group, as the operator's rollback writes them), and
``atomic()`` groups around runs of them -- run against one :class:`FileStableStorage` with the
compaction floor patched low, so snapshots and deltas interleave.  After
every record a fresh storage is opened over a copy of the file and must
equal the live object's durable state: nothing a record acknowledged may
depend on a later write.  An open group writes no record, and closing it
writes at most one.
"""

import asyncio
import pickle
import random
import shutil

import pytest

from repro.live.storage import FileStableStorage
from repro.storage.checkpoint import SEND_LOG


def _state(storage):
    return pickle.loads(pickle.dumps(storage._snapshot()))


class _Driver:
    def __init__(self, storage, rng):
        self.storage = storage
        self.rng = rng
        self.group = None
        self.serial = 0

    def step(self):
        self.serial += 1
        if self.group is not None:
            self.group_steps -= 1
            if not self.group_steps:
                self.close_group()
                return
        self.rng.choice(
            [
                self.flush, self.flush, self.truncate, self.discard_prefix,
                self.take, self.discard_after, self.collect,
                self.token, self.put, self.put_lazy,
                self.outbox_add, self.outbox_add, self.outbox_ack,
                self.rewind, self.atomic_group,
            ]
        )()

    # -- message log ----------------------------------------------------
    def flush(self):
        log = self.storage.log
        for _ in range(self.rng.randrange(4)):      # 0: an empty flush
            log.append(self.serial, 1, f"m{self.serial}", meta=(self.serial,))
        log.flush()

    def truncate(self):
        log = self.storage.log
        log.flush()
        log.truncate(self.rng.randint(log._gc_offset, log.stable_length))

    def discard_prefix(self):
        # As a GC sweep does it: the dropped entries' dedup ids first.
        log = self.storage.log
        before = self.rng.randint(0, log.stable_length)
        self.storage.extend_dedup_base(
            [entry.meta for entry in log.retained_before(before)]
        )
        log.discard_prefix(before)

    # -- checkpoints ----------------------------------------------------
    def take(self):
        self.storage.checkpoints.take(
            float(self.serial), {"state": self.serial},
            self.storage.log.stable_length,
            extras={
                "clock": (self.serial, 0),
                SEND_LOG: self.storage.send_append([self.serial] * 2),
            },
        )

    def discard_after(self):
        checkpoints = list(self.storage.checkpoints)
        if checkpoints:
            self.storage.checkpoints.discard_after(
                self.rng.choice(checkpoints)
            )

    def collect(self):
        store = self.storage.checkpoints
        store.garbage_collect_before(self.rng.randint(0, store._next_id))

    # -- tokens and kv --------------------------------------------------
    def token(self):
        key = (self.rng.randrange(3), self.rng.randrange(3))
        self.storage.log_token(("token",) + key, dedupe_key=key)

    def put(self):
        self.storage.put(f"k{self.rng.randrange(4)}", self.serial)

    def put_lazy(self):
        self.storage.put_lazy(f"lazy{self.rng.randrange(2)}", {self.serial})

    # -- outbox ---------------------------------------------------------
    def outbox_add(self):
        self.storage.outbox.add(self.rng.randrange(1, 3), f"msg{self.serial}")

    def outbox_ack(self):
        dst = self.rng.randrange(1, 3)
        self.storage.outbox.ack(
            dst, self.rng.randrange(self.storage.outbox.next_seq(dst))
        )

    # -- a rewind to a checkpoint: one group, one record ----------------
    def rewind(self):
        storage = self.storage
        checkpoints = list(storage.checkpoints)
        if not checkpoints:
            return
        anchor = self.rng.choice(checkpoints)
        log = storage.log
        keep = max(anchor.log_position, log._gc_offset)
        before = storage.persist_count
        with storage.atomic():
            storage.checkpoints.discard_after(anchor)
            storage.send_cut_to(anchor)
            if log.stable_length > keep:
                log.truncate(keep)
            storage.put("stable_own", self.serial)
        assert storage.persist_count == before + (self.group is None)

    # -- one transition: a group around the next few steps --------------
    def atomic_group(self):
        if self.group is None:
            self.group = self.storage.atomic()
            self.group.__enter__()
            self.group_steps = self.rng.randint(2, 5)

    def close_group(self):
        if self.group is not None:
            group, self.group = self.group, None
            group.__exit__(None, None, None)


def _drive(path, copy, seed, *, flush_window, steps=350):
    rng = random.Random(seed)
    storage = FileStableStorage(0, path, flush_window=flush_window)
    driver = _Driver(storage, rng)
    compared = compactions = 0
    for step in range(steps):
        before = (storage.persist_count, storage.dir_fsyncs)
        grouped = driver.group is not None
        if step == steps - 1:
            driver.close_group()
        else:
            driver.step()
        if flush_window and rng.random() < 0.15:
            storage.sync()
        if driver.group is not None:
            assert storage.persist_count == before[0], (seed, driver.serial)
        elif grouped:
            assert storage.persist_count <= before[0] + 1
        if storage.persist_count == before[0]:
            continue
        compactions += storage.dir_fsyncs - before[1]
        shutil.copyfile(path, copy)
        reborn = FileStableStorage(0, copy)
        assert _state(reborn) == _state(storage), (seed, driver.serial)
        assert reborn.torn_tails_healed == 0
        compared += 1
    return compared, compactions


@pytest.mark.parametrize("seed", range(6))
def test_every_barrier_reloads_to_the_live_state(tmp_path, monkeypatch, seed):
    """``flush_window=0``: every mutation is its own record."""
    monkeypatch.setattr("repro.live.storage._COMPACT_FLOOR", 2048)
    compared, compactions = _drive(
        str(tmp_path / "live.pickle"), str(tmp_path / "copy.pickle"),
        seed, flush_window=0.0,
    )
    assert compared > 150 and compactions > 3


@pytest.mark.parametrize("seed", range(6, 10))
def test_barriers_carrying_a_lazy_tail_reload_to_the_live_state(
    tmp_path, monkeypatch, seed
):
    """Under a (never firing) window, lazy kv and outbox records pile up
    until a barrier or ``sync()`` carries them all in one record."""
    monkeypatch.setattr("repro.live.storage._COMPACT_FLOOR", 2048)

    async def go():
        return _drive(
            str(tmp_path / "live.pickle"), str(tmp_path / "copy.pickle"),
            seed, flush_window=60.0,
        )

    compared, compactions = asyncio.run(go())
    assert compared > 80 and compactions > 3
