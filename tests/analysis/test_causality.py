"""Unit tests for ground-truth reconstruction."""

import pytest

from repro.analysis.causality import GroundTruth, build_ground_truth
from repro.runtime.trace import EventKind, SimTrace


def uid(pid, inc, serial):
    return (pid, inc, serial)


class TraceBuilder:
    """Fluent helper for composing synthetic traces."""

    def __init__(self):
        self.trace = SimTrace()
        self.t = 0.0

    def _next(self):
        self.t += 1.0
        return self.t

    def send(self, pid, msg_id, dst, sender_uid):
        self.trace.record(
            self._next(), EventKind.SEND, pid,
            msg_id=msg_id, dst=dst, uid=sender_uid,
        )
        return self

    def deliver(self, pid, msg_id, new_uid, prev_uid, replay=False):
        self.trace.record(
            self._next(), EventKind.DELIVER, pid,
            msg_id=msg_id, uid=new_uid, prev_uid=prev_uid, replay=replay,
        )
        return self

    def restore(self, pid, ckpt_uid, reason):
        self.trace.record(
            self._next(), EventKind.RESTORE, pid,
            ckpt_uid=ckpt_uid, reason=reason,
        )
        return self

    def restart(self, pid, restored_uid, new_uid):
        self.trace.record(
            self._next(), EventKind.RESTART, pid,
            restored_uid=restored_uid, new_uid=new_uid,
        )
        return self

    def rollback(self, pid, restored_uid, new_uid):
        self.trace.record(
            self._next(), EventKind.ROLLBACK, pid,
            restored_uid=restored_uid, new_uid=new_uid,
        )
        return self

    def discard(self, pid, msg_id, reason="obsolete"):
        self.trace.record(
            self._next(), EventKind.DISCARD, pid,
            msg_id=msg_id, reason=reason,
        )
        return self

    def build(self, n) -> GroundTruth:
        return build_ground_truth(self.trace, n)


def test_initial_states_present():
    gt = TraceBuilder().build(3)
    assert gt.states == {uid(0, 0, 0), uid(1, 0, 0), uid(2, 0, 0)}
    assert gt.lost == set() and gt.rolled_back == set()


def test_message_edge_connects_sender_to_delivery():
    gt = (
        TraceBuilder()
        .send(0, msg_id=1, dst=1, sender_uid=uid(0, 0, 0))
        .deliver(1, msg_id=1, new_uid=uid(1, 0, 1), prev_uid=uid(1, 0, 0))
        .build(2)
    )
    assert (uid(0, 0, 0), uid(1, 0, 1)) in gt.message_edges
    assert (uid(1, 0, 0), uid(1, 0, 1)) in gt.local_edges
    assert gt.happens_before(uid(0, 0, 0), uid(1, 0, 1))
    assert not gt.happens_before(uid(1, 0, 1), uid(0, 0, 0))


def test_restart_marks_unreplayed_states_lost():
    gt = (
        TraceBuilder()
        .send(0, 1, 1, uid(0, 0, 0))
        .send(0, 2, 1, uid(0, 0, 0))
        .deliver(1, 1, uid(1, 0, 1), uid(1, 0, 0))
        .deliver(1, 2, uid(1, 0, 2), uid(1, 0, 1))
        # crash: checkpoint is the initial state; only msg 1 was logged
        .restore(1, uid(1, 0, 0), reason="restart")
        .deliver(1, 1, uid(1, 0, 1), uid(1, 0, 0), replay=True)
        .restart(1, restored_uid=uid(1, 0, 1), new_uid=uid(1, 1, 0))
        .build(2)
    )
    assert gt.lost == {uid(1, 0, 2)}
    assert uid(1, 0, 1) in gt.surviving_states      # replay rescued it
    assert uid(1, 1, 0) in gt.surviving_states
    assert uid(1, 1, 0) in gt.recovery_states


def test_orphans_are_cross_process_dependents_of_lost():
    gt = (
        TraceBuilder()
        .send(0, 1, 1, uid(0, 0, 0))
        .deliver(1, 1, uid(1, 0, 1), uid(1, 0, 0))
        # the lost state sends to P2 before the failure
        .send(1, 2, 2, uid(1, 0, 1))
        .deliver(2, 2, uid(2, 0, 1), uid(2, 0, 0))
        .restore(1, uid(1, 0, 0), reason="restart")
        .restart(1, restored_uid=uid(1, 0, 0), new_uid=uid(1, 1, 0))
        .build(3)
    )
    assert gt.lost == {uid(1, 0, 1)}
    assert gt.orphans() == {uid(2, 0, 1)}


def test_order_lists_each_state_once_as_first_created():
    gt = (
        TraceBuilder()
        .send(0, 1, 1, uid(0, 0, 0))
        .deliver(1, 1, uid(1, 0, 1), uid(1, 0, 0))
        .restore(1, uid(1, 0, 0), reason="restart")
        .deliver(1, 1, uid(1, 0, 1), uid(1, 0, 0), replay=True)
        .restart(1, restored_uid=uid(1, 0, 1), new_uid=uid(1, 1, 0))
        .build(2)
    )
    assert gt.order == [uid(0, 0, 0), uid(1, 0, 0), uid(1, 0, 1), uid(1, 1, 0)]
    assert list(gt.bits) == gt.order and set(gt.order) == gt.states


def test_rollback_marks_states_rolled_back_not_lost():
    gt = (
        TraceBuilder()
        .send(0, 1, 1, uid(0, 0, 0))
        .deliver(1, 1, uid(1, 0, 1), uid(1, 0, 0))
        .restore(1, uid(1, 0, 0), reason="rollback")
        .rollback(1, restored_uid=uid(1, 0, 0), new_uid=uid(1, 0, 2))
        .build(2)
    )
    assert gt.rolled_back == {uid(1, 0, 1)}
    assert gt.lost == set()
    assert uid(1, 0, 2) in gt.recovery_states


def test_superseded_recovery_state_classified_separately():
    gt = (
        TraceBuilder()
        .send(0, 1, 1, uid(0, 0, 0))
        .deliver(1, 1, uid(1, 0, 1), uid(1, 0, 0))
        .restore(1, uid(1, 0, 0), reason="rollback")
        .rollback(1, restored_uid=uid(1, 0, 0), new_uid=uid(1, 0, 2))
        # a second rollback (other failure) pops the recovery state
        .restore(1, uid(1, 0, 0), reason="rollback")
        .rollback(1, restored_uid=uid(1, 0, 0), new_uid=uid(1, 0, 3))
        .build(2)
    )
    assert gt.superseded == {uid(1, 0, 2)}
    assert gt.rolled_back == {uid(1, 0, 1)}


def test_restore_to_unknown_state_raises():
    builder = TraceBuilder().restore(0, uid(0, 9, 9), reason="restart")
    with pytest.raises(ValueError):
        builder.build(1)


def test_obsolete_discards_tracked():
    gt = (
        TraceBuilder()
        .send(0, 5, 1, uid(0, 0, 0))
        .discard(1, 5, reason="obsolete")
        .discard(1, 6, reason="duplicate")
        .build(2)
    )
    assert gt.obsolete_discards == {5}


def test_reachability_is_transitive():
    gt = (
        TraceBuilder()
        .send(0, 1, 1, uid(0, 0, 0))
        .deliver(1, 1, uid(1, 0, 1), uid(1, 0, 0))
        .send(1, 2, 2, uid(1, 0, 1))
        .deliver(2, 2, uid(2, 0, 1), uid(2, 0, 0))
        .build(3)
    )
    assert gt.happens_before(uid(0, 0, 0), uid(2, 0, 1))


def test_useful_excludes_lost_orphans_superseded():
    gt = (
        TraceBuilder()
        .send(0, 1, 1, uid(0, 0, 0))
        .deliver(1, 1, uid(1, 0, 1), uid(1, 0, 0))
        .send(1, 2, 2, uid(1, 0, 1))
        .deliver(2, 2, uid(2, 0, 1), uid(2, 0, 0))
        .restore(1, uid(1, 0, 0), reason="restart")
        .restart(1, restored_uid=uid(1, 0, 0), new_uid=uid(1, 1, 0))
        .build(3)
    )
    useful = gt.useful()
    assert uid(1, 0, 1) not in useful          # lost
    assert uid(2, 0, 1) not in useful          # orphan
    assert uid(0, 0, 0) in useful
    assert uid(1, 1, 0) in useful
