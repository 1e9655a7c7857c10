"""Unit tests for the service KV application and its session ledger.

The ledger is the exactly-once mechanism: these tests pin its semantics
(a set of applied seqs, not a high-water mark; cached-reply re-acks;
rollback-safe re-application) at the pure-function level, where every
case is a one-line scenario instead of a cluster run.
"""

import pytest

from repro.service.kv import (
    KVGet,
    KVPut,
    KVReplicate,
    KVReply,
    KVServiceApp,
    ServiceReplicaState,
    SessionSlot,
    lookup_sorted,
)
from repro.runtime.app import ProcessContext


def ctx(pid, n=4):
    return ProcessContext(pid, n)


class TestSessionSlot:
    def test_record_and_has(self):
        reply = KVReply(op_id=(7, 3), key="a", value=1, version=1)
        slot = SessionSlot().record(3, reply)
        assert slot.has(3)
        assert not slot.has(2) and not slot.has(4)
        assert slot.last_reply == reply

    def test_is_a_set_not_a_high_water_mark(self):
        """Out-of-order recording (a rollback re-applying seq 1 after a
        retried seq 2 landed) must keep both seqs, sorted."""
        r2 = KVReply(op_id=(7, 2), key="a", value=2, version=1)
        r1 = KVReply(op_id=(7, 1), key="a", value=1, version=2)
        slot = SessionSlot().record(2, r2).record(1, r1)
        assert slot.applied == (1, 2)
        assert slot.has(1) and slot.has(2) and not slot.has(0)


class TestServiceReplicaState:
    def test_store_lookup_and_ledger(self):
        reply = KVReply(op_id=(9, 0), key="a", value=5, version=1)
        state = ServiceReplicaState().store(
            "a", 5, 1, session=9, slot=SessionSlot().record(0, reply)
        )
        assert state.lookup("a") == (5, 1)
        assert state.lookup("zzz") is None
        assert state.slot(9).has(0)
        assert not state.slot(8).has(0)    # unknown session: empty slot
        assert state.applied == 1

    def test_states_stay_hashable(self):
        reply = KVReply(op_id=(1, 0), key="a", value=1, version=1)
        state = ServiceReplicaState().store(
            "a", 1, 1, session=1, slot=SessionSlot().record(0, reply)
        )
        assert hash(state) == hash(
            ServiceReplicaState().store(
                "a", 1, 1, session=1, slot=SessionSlot().record(0, reply)
            )
        )

    def test_lookup_sorted_prefix_probe(self):
        data = (("a", 1), ("b", 2), ("c", 3))
        assert lookup_sorted(data, "b") == 2
        assert lookup_sorted(data, "bb") is None
        assert lookup_sorted((), "a") is None


class TestKVServiceApp:
    def test_gateway_must_not_receive_app_messages(self):
        """A delivery at pid 0 would make the gateway rollback-able and
        regress its injection dedup ids -- it is a bug, loudly."""
        app = KVServiceApp(replicas=3)
        with pytest.raises(TypeError):
            app.handle(
                ServiceReplicaState(),
                KVPut(key="a", value=1, op_id=(0, 0)),
                ctx(0),
            )

    def test_primary_range_excludes_gateway(self):
        app = KVServiceApp(replicas=3)
        for i in range(50):
            assert 1 <= app.primary_for(f"k{i}") <= 3

    def test_put_replies_via_output_and_replicates(self):
        app = KVServiceApp(replicas=3)
        c = ctx(1)
        state = app.handle(
            ServiceReplicaState(), KVPut(key="a", value=5, op_id=(7, 0)), c
        )
        assert state.lookup("a") == (5, 1)
        assert state.slot(7).has(0)
        # Reply leaves through the environment (the node's reply port),
        # never as a send back to the gateway.
        assert [o.value.version for o in c.outputs] == [1]
        assert all(s.dst != 0 for s in c.sends)
        assert {s.dst for s in c.sends} == {2, 3}
        assert all(isinstance(s.payload, KVReplicate) for s in c.sends)

    def test_duplicate_put_reacks_from_cache_without_reapplying(self):
        app = KVServiceApp(replicas=2)
        put = KVPut(key="a", value=5, op_id=(7, 0))
        c1 = ctx(1, 3)
        state = app.handle(ServiceReplicaState(), put, c1)
        c2 = ctx(1, 3)
        deduped = app.handle(state, put, c2)
        # No double application: same version, no new replicate.
        assert deduped.lookup("a") == (5, 1)
        assert c2.sends == []
        assert [o.value for o in c2.outputs] == [c1.outputs[0].value]

    def test_retry_of_the_highest_op_is_reacked_after_an_older_one_lands(self):
        """Recovery can re-apply a session's puts out of order: the
        outbox retransmits (s,8) first, Remark 1 retransmits the acked
        but unlogged (s,7) afterwards.  The client is still retrying
        (s,8) -- the only op a sequential session can have in flight --
        so its reply must stay cached; caching (s,7)'s left every retry
        of (s,8) unanswered forever."""
        app = KVServiceApp(replicas=2)
        put8 = KVPut(key="a", value=8, op_id=(7, 8))
        first = ctx(1, 3)
        state = app.handle(ServiceReplicaState(), put8, first)
        state = app.handle(
            state, KVPut(key="b", value=7, op_id=(7, 7)), ctx(1, 3)
        )
        retry = ctx(1, 3)
        app.handle(state, put8, retry)
        assert [o.value for o in retry.outputs] == [first.outputs[0].value]
        assert retry.sends == []

    def test_distinct_ops_on_one_key_bump_versions(self):
        app = KVServiceApp(replicas=2)
        c = ctx(1, 3)
        state = app.handle(
            ServiceReplicaState(), KVPut(key="a", value=5, op_id=(7, 0)), c
        )
        state = app.handle(state, KVPut(key="a", value=6, op_id=(7, 1)), c)
        assert state.lookup("a") == (6, 2)
        assert [o.value.version for o in c.outputs] == [1, 2]

    def test_get_is_not_deduplicated(self):
        """A retried get must observe the current store (that is how a
        client's version floor escapes a stale window)."""
        app = KVServiceApp(replicas=2)
        get = KVGet(key="a", op_id=(7, 5))
        state = ServiceReplicaState().store("a", 1, 1)
        c = ctx(1, 3)
        app.handle(state, get, c)
        state = state.store("a", 2, 2)
        app.handle(state, get, c)
        assert [o.value.version for o in c.outputs] == [1, 2]

    def test_replicate_applies_only_newer_versions(self):
        app = KVServiceApp(replicas=2)
        state = ServiceReplicaState().store("a", 5, 3)
        newer = app.handle(
            state,
            KVReplicate(key="a", value=9, version=4, op_id=(7, 1)),
            ctx(2, 3),
        )
        assert newer.lookup("a") == (9, 4)
        stale = app.handle(
            newer,
            KVReplicate(key="a", value=1, version=2, op_id=(7, 2)),
            ctx(2, 3),
        )
        assert stale.lookup("a") == (9, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            KVServiceApp(replicas=0)
