"""Each protocol transition is one record, and every record prefix boots.

Figure 4's stable-storage steps -- a checkpoint (with its log flush), a
log flush (with the durable clock frontier), a restart (the token log
through the restart checkpoint), a rollback (the first flush through the
frontier write) and Remark 2's GC sweep -- each run inside
``StableStorage.atomic()``, which ``FileStableStorage`` writes as one
CRC-checked record.  A SIGKILL therefore finds each of them whole or
absent, and no startup code has to stitch a partial one back together.

The run is Damani-Garg at n=4 with two crashes that force rollbacks,
Remark 1, stability gossip and GC, on the simulator with every process's
storage swapped for a ``FileStableStorage`` that keeps a copy of its
file after every record.
"""

import shutil

import pytest

from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentResult, ExperimentSpec
from repro.live.storage import FileStableStorage
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan
from repro.storage.checkpoint import SEND_LOG
from repro.storage.stable import StableStorage

#: The wrapped transitions.  A call nested in another one is a step of
#: it (the flush inside a checkpoint, the checkpoint inside a restart),
#: except a rollback, which a restart's token re-application can start
#: after the restart's own record.
TRANSITIONS = (
    "take_checkpoint", "flush_log", "on_restart", "_rollback",
    "apply_stability",
)


def _spec():
    return ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=60, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        seed=3,
        horizon=120.0,
        crashes=CrashPlan().crash(20.0, 1, 2.0).crash(40.0, 2, 2.0),
        config=ProtocolConfig(
            checkpoint_interval=8.0,
            flush_interval=2.5,
            retransmit_on_token=True,
            gossip_interval=3.0,
            enable_gc=True,
        ),
    )


class _Capturing(FileStableStorage):
    """Copies its file after every record it writes."""

    images: list = []

    def _persist(self, *, window=False):
        count = self.persist_count
        super()._persist(window=window)
        if self.persist_count > count:
            copy = f"{self.path}.{self.persist_count}"
            shutil.copyfile(self.path, copy)
            self.images.append((self.pid, copy))


def _count_records(monkeypatch, calls):
    """Wrap each transition; ``calls`` gets ``(name, records written,
    whether it reclaimed anything)`` per transition."""
    active = []

    def wrap(name):
        original = getattr(DamaniGargProcess, name)

        def transition(self, *args, **kwargs):
            storage = self.storage
            entry = [storage.persist_count, 0]
            reclaimed = (storage.log.gc_count, storage.checkpoints.discarded_count)
            active.append(entry)
            try:
                return original(self, *args, **kwargs)
            finally:
                active.pop()
                own = storage.persist_count - entry[0] - entry[1]
                if not active or name == "_rollback":
                    if active:
                        active[-1][1] += own + entry[1]
                    calls.append((
                        name, own,
                        reclaimed != (
                            storage.log.gc_count,
                            storage.checkpoints.discarded_count,
                        ),
                    ))

        monkeypatch.setattr(DamaniGargProcess, name, transition)

    for name in TRANSITIONS:
        wrap(name)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Run the schedule once: the transitions with their record counts,
    the captured images and the directory they live in."""
    data = tmp_path_factory.mktemp("images")
    calls = []
    _Capturing.images = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(
            "repro.sim.env.StableStorage",
            lambda pid: _Capturing(pid, str(data / f"stable_p{pid}.pickle")),
        )
        _count_records(monkeypatch, calls)
        result = ExperimentResult.build(_spec()).run()
    assert result.total_rollbacks > 0 and result.total_restarts == 2
    return calls, list(_Capturing.images)


def test_each_transition_writes_exactly_one_record(reference):
    calls, _ = reference
    by_name = {name: [] for name in TRANSITIONS}
    for name, records, reclaimed in calls:
        by_name[name].append((records, reclaimed))
    assert {name: len(seen) > 0 for name, seen in by_name.items()} == {
        name: True for name in TRANSITIONS
    }
    for name in ("take_checkpoint", "flush_log", "on_restart", "_rollback"):
        assert {records for records, _ in by_name[name]} == {1}, name
    # A sweep with nothing to reclaim writes nothing (output commit is
    # off here); one that reclaims writes one record for all of it.
    sweeps = by_name["apply_stability"]
    assert any(reclaimed for _, reclaimed in sweeps)
    assert all(records == int(reclaimed) for records, reclaimed in sweeps)


def test_every_record_prefix_boots(reference, monkeypatch):
    """Whatever record a SIGKILL lands after, the image holds no
    half-done transition and ``on_restart`` completes on it."""
    _, images = reference
    assert len(images) > 100
    for pid, image in images:
        storage = FileStableStorage(pid, image)
        assert storage.active_intent() is None, image
        for ckpt in storage.checkpoints:
            assert ckpt.log_position <= storage.log.stable_length, image
            assert ckpt.extras[SEND_LOG].end <= len(storage.sends), image

        monkeypatch.setattr(
            "repro.sim.env.StableStorage",
            lambda p, pid=pid, image=image: (
                FileStableStorage(p, image) if p == pid else StableStorage(p)
            ),
        )
        host = ExperimentResult.build(_spec()).hosts[pid]
        host.crash()
        host.restart()
        assert host.protocol.stats.restarts == 1, image
