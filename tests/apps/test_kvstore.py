"""Tests for the replicated key-value store workload."""

import pytest

from repro.analysis import check_recovery
from repro.apps.kvstore import ClientState, KVStoreApp, ReplicaState
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.service.kv import KVGet, KVPut, KVReplicate, KVReply
from repro.sim.failures import CrashPlan
from repro.runtime.app import ProcessContext


def ctx(pid, n=5):
    return ProcessContext(pid, n)


class TestReplicaState:
    def test_store_and_lookup(self):
        state = ReplicaState().store("a", 7, 1)
        assert state.lookup("a") == (7, 1)
        assert state.lookup("missing") is None
        assert state.applied == 1

    def test_store_is_immutable(self):
        base = ReplicaState().store("a", 7, 1)
        base.store("a", 9, 2)
        assert base.lookup("a") == (7, 1)

    def test_as_dict(self):
        state = ReplicaState().store("a", 1, 1).store("b", 2, 1)
        assert state.as_dict() == {"a": (1, 1), "b": (2, 1)}


class TestClientState:
    def test_observe_tracks_versions(self):
        state = ClientState().observe("k", 3)
        assert state.observed_version("k") == 3
        assert state.observed_version("other") == 0
        assert state.replies == 1


class TestAppUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            KVStoreApp(replicas=0)
        with pytest.raises(ValueError):
            KVStoreApp(put_ratio=4)

    def test_roles(self):
        app = KVStoreApp(replicas=2)
        assert app.is_replica(0) and app.is_replica(1)
        assert not app.is_replica(2)

    def test_primary_is_stable_and_in_range(self):
        app = KVStoreApp(replicas=3)
        for i in range(10):
            key = f"k{i}"
            primary = app.primary_for(key)
            assert 0 <= primary < 3
            assert primary == app.primary_for(key)

    def test_put_bumps_version_replicates_and_replies(self):
        app = KVStoreApp(replicas=2)
        c = ctx(0)
        state = app.handle(
            ReplicaState(), KVPut(key="a", value=5, op_id=(2, 0)), c
        )
        assert state.lookup("a") == (5, 1)
        kinds = [type(s.payload) for s in c.sends]
        assert kinds.count(KVReplicate) == 1
        assert kinds.count(KVReply) == 1
        reply = next(s for s in c.sends if isinstance(s.payload, KVReply))
        assert reply.dst == 2
        assert reply.payload.version == 1

    def test_replicate_applies_only_newer_versions(self):
        app = KVStoreApp(replicas=2)
        state = ReplicaState().store("a", 5, 3)
        newer = app.handle(
            state, KVReplicate(key="a", value=9, version=4, op_id=(2, 1)),
            ctx(1),
        )
        assert newer.lookup("a") == (9, 4)
        stale = app.handle(
            newer, KVReplicate(key="a", value=1, version=2, op_id=(2, 2)),
            ctx(1),
        )
        assert stale.lookup("a") == (9, 4)

    def test_get_replies_with_current(self):
        app = KVStoreApp(replicas=1)
        state = ReplicaState().store("a", 5, 3)
        c = ctx(0, 3)
        app.handle(state, KVGet(key="a", op_id=(2, 7)), c)
        reply = c.sends[0].payload
        assert reply.value == 5 and reply.version == 3

    def test_get_of_missing_key(self):
        app = KVStoreApp(replicas=1)
        c = ctx(0, 3)
        app.handle(ReplicaState(), KVGet(key="nope", op_id=(2, 0)), c)
        reply = c.sends[0].payload
        assert reply.value is None and reply.version == 0

    def test_client_stops_at_op_budget(self):
        app = KVStoreApp(replicas=1, ops_per_client=2)
        state = ClientState(ops_sent=2)
        c = ctx(2, 3)
        final = app.handle(
            state, KVReply(op_id=(2, 1), key="a", value=1, version=1), c
        )
        assert c.sends == []
        assert final.replies == 1


class _CountingKey(str):
    """A key that counts its comparisons (perf shape, not wall time)."""

    comparisons = 0

    def _count(op):
        def compare(self, other):
            _CountingKey.comparisons += 1
            return getattr(str, op)(self, other)
        return compare

    __lt__ = _count("__lt__")
    __gt__ = _count("__gt__")
    __le__ = _count("__le__")
    __ge__ = _count("__ge__")
    __eq__ = _count("__eq__")
    __hash__ = str.__hash__
    del _count


class TestLookupIsLogarithmic:
    """``ReplicaState.lookup`` must binary-search, not scan.

    The states are sorted tuples already; a linear scan costs O(keys)
    comparisons per lookup, which multiplies into every put, get, and
    replicate of every replay.  Counting key comparisons pins the
    O(log n) shape without a timing-flaky benchmark.
    """

    KEYS = 1024

    def _state(self):
        data = tuple(
            (_CountingKey(f"k{i:05d}"), (i, 1)) for i in range(self.KEYS)
        )
        return ReplicaState(data=data)

    def test_hit_and_miss_cost_log_comparisons(self):
        state = self._state()
        budget = 64                      # ~6x log2(1024), far below 1024
        for probe in ("k00000", "k00511", "k01023", "missing", "k005110"):
            _CountingKey.comparisons = 0
            state.lookup(probe)
            assert _CountingKey.comparisons <= budget, (
                probe, _CountingKey.comparisons
            )

    def test_results_match_the_dict_view(self):
        state = self._state()
        as_dict = state.as_dict()
        for i in (0, 1, 511, 1022, 1023):
            key = f"k{i:05d}"
            assert state.lookup(key) == as_dict[key]
        assert state.lookup("k99999") is None


def run_kv(*, seed=0, crashes=None, retransmit=True, horizon=250.0,
           record=False):
    app = KVStoreApp(replicas=2, keys=6, ops_per_client=25)
    spec = ExperimentSpec(
        n=5,
        app=app,
        protocol=DamaniGargProcess,
        crashes=crashes,
        seed=seed,
        horizon=horizon,
        record_states=record,
        config=ProtocolConfig(
            checkpoint_interval=10.0,
            flush_interval=3.0,
            retransmit_on_token=retransmit,
        ),
    )
    return run_experiment(spec)


class TestEndToEnd:
    def test_failure_free_all_ops_complete(self):
        result = run_kv()
        for client in result.protocols[2:]:
            state = client.executor.state
            assert state.ops_sent == 25 and state.replies == 25

    def test_replicas_converge_without_failures(self):
        result = run_kv()
        a, b = (p.executor.state.as_dict() for p in result.protocols[:2])
        assert a == b and a    # non-empty and identical

    def test_recovery_with_replica_crashes(self):
        for seed in range(4):
            result = run_kv(
                seed=seed,
                crashes=CrashPlan().crash(30.0, 0, 2.0).crash(60.0, 1, 2.0),
            )
            verdict = check_recovery(result)
            assert verdict.ok, (seed, verdict.violations)
            a, b = (p.executor.state.as_dict() for p in result.protocols[:2])
            assert a == b, f"replicas diverged (seed {seed})"
            for client in result.protocols[2:]:
                assert client.executor.state.replies == 25

    def test_recovery_with_client_crash(self):
        result = run_kv(
            seed=2, crashes=CrashPlan().crash(40.0, 3, 2.0)
        )
        assert check_recovery(result).ok

    def test_version_monotonicity_along_surviving_chains(self):
        """Along every surviving replica chain, key versions never drop."""
        from repro.analysis.causality import build_ground_truth

        result = run_kv(
            seed=1,
            crashes=CrashPlan().crash(30.0, 0, 2.0),
            record=True,
        )
        gt = build_ground_truth(result.trace, 5)
        for pid in (0, 1):
            states = result.protocols[pid].executor.state_by_uid
            last: dict[str, int] = {}
            for uid in gt.surviving[pid]:
                snapshot = states.get(uid)
                if snapshot is None:
                    continue
                for key, (_value, version) in snapshot.data:
                    assert version >= last.get(key, 0), (pid, uid, key)
                    last[key] = version

    def test_session_monotonicity_for_clients(self):
        """A client never sees a key's version go backwards."""
        from repro.analysis.causality import build_ground_truth

        result = run_kv(
            seed=3,
            crashes=CrashPlan().crash(30.0, 0, 2.0).crash(70.0, 1, 2.0),
            record=True,
        )
        gt = build_ground_truth(result.trace, 5)
        for pid in (2, 3, 4):
            states = result.protocols[pid].executor.state_by_uid
            last: dict[str, int] = {}
            for uid in gt.surviving[pid]:
                snapshot = states.get(uid)
                if snapshot is None:
                    continue
                for key, version in snapshot.observed:
                    assert version >= last.get(key, 0), (pid, uid, key)
                    last[key] = version
