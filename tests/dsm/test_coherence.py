"""Unit tests for the DSM coherence protocol (no failures here)."""

import pytest

from repro.dsm.coherence import (
    DSMApp,
    DSMFetchAdd,
    DSMFetchAddAck,
    DSMInvAck,
    DSMInvalidate,
    DSMRead,
    DSMReadData,
    DSMWrite,
    DSMWriteAck,
    HomeState,
    WorkerState,
)
from repro.runtime.app import ProcessContext


def ctx(pid=0, n=4):
    return ProcessContext(pid, n)


def payloads(c):
    return [(s.dst, s.payload) for s in c.sends]


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            DSMApp(homes=0)
        with pytest.raises(ValueError):
            DSMApp(pages=0)

    def test_topology(self):
        app = DSMApp(homes=2, pages=4)
        assert app.is_home(0) and app.is_home(1) and not app.is_home(2)
        assert app.home_of(0) == 0 and app.home_of(1) == 1
        assert app.home_of(2) == 0


class TestReads:
    def test_read_returns_current_and_registers_copy(self):
        app = DSMApp(homes=1, pages=2)
        c = ctx(0)
        state = app.handle(HomeState(), DSMRead(page=0, reader=2, req=5), c)
        (dst, reply), = payloads(c)
        assert dst == 2
        assert reply == DSMReadData(page=0, value=0, version=0, req=5)
        assert state.copyset(0) == (2,)

    def test_read_during_pending_write_is_deferred(self):
        app = DSMApp(homes=1, pages=1)
        # Reader 2 caches; writer 3 starts a write (invalidation pending).
        state = app.handle(HomeState(), DSMRead(0, 2, 0), ctx(0))
        c = ctx(0)
        state = app.handle(state, DSMWrite(0, 99, 3, 1), c)
        assert any(isinstance(p, DSMInvalidate) for _d, p in payloads(c))
        c2 = ctx(0)
        state = app.handle(state, DSMRead(0, 1, 2), c2)
        assert payloads(c2) == []                  # deferred, not answered
        assert state.deferred_reads == ((0, 1, 2),)
        # The invack commits the write AND releases the read with the NEW value.
        c3 = ctx(0)
        state = app.handle(state, DSMInvAck(page=0, sender=2), c3)
        sent = payloads(c3)
        read_replies = [p for _d, p in sent if isinstance(p, DSMReadData)]
        assert read_replies == [DSMReadData(page=0, value=99, version=1, req=2)]


class TestWrites:
    def test_uncached_write_commits_immediately(self):
        app = DSMApp(homes=1, pages=1)
        c = ctx(0)
        state = app.handle(HomeState(), DSMWrite(0, 7, 2, 0), c)
        (dst, ack), = payloads(c)
        assert dst == 2
        assert ack == DSMWriteAck(page=0, value=7, version=1, req=0)
        assert state.page_entry(0) == (7, 1)
        assert state.copyset(0) == (2,)
        assert state.write_log[-1] == (0, 1, 7, 2, "write")

    def test_cached_write_waits_for_all_invacks(self):
        app = DSMApp(homes=1, pages=1)
        state = app.handle(HomeState(), DSMRead(0, 2, 0), ctx(0))
        state = app.handle(state, DSMRead(0, 3, 0), ctx(0))
        c = ctx(0, 5)
        state = app.handle(state, DSMWrite(0, 9, 4, 1), c)
        invalidations = [d for d, p in payloads(c)
                         if isinstance(p, DSMInvalidate)]
        assert sorted(invalidations) == [2, 3]
        assert state.page_entry(0) == (0, 0)        # not committed yet
        c2 = ctx(0, 5)
        state = app.handle(state, DSMInvAck(0, 2), c2)
        assert payloads(c2) == []                   # still waiting for 3
        c3 = ctx(0, 5)
        state = app.handle(state, DSMInvAck(0, 3), c3)
        assert state.page_entry(0) == (9, 1)
        acks = [p for _d, p in payloads(c3) if isinstance(p, DSMWriteAck)]
        assert acks == [DSMWriteAck(page=0, value=9, version=1, req=1)]

    def test_writer_keeps_cached_copy_others_invalidated(self):
        app = DSMApp(homes=1, pages=1)
        state = app.handle(HomeState(), DSMRead(0, 2, 0), ctx(0))
        c = ctx(0)
        state = app.handle(state, DSMWrite(0, 5, 2, 1), c)
        # The writer itself was the only cacher: no invalidations needed.
        assert not any(isinstance(p, DSMInvalidate) for _d, p in payloads(c))
        assert state.copyset(0) == (2,)

    def test_queued_writes_commit_in_order(self):
        app = DSMApp(homes=1, pages=1)
        state = app.handle(HomeState(), DSMRead(0, 2, 0), ctx(0))
        state = app.handle(state, DSMWrite(0, 10, 3, 1), ctx(0))
        state = app.handle(state, DSMWrite(0, 20, 1, 2), ctx(0))
        c = ctx(0)
        state = app.handle(state, DSMInvAck(0, 2), c)
        # First write committed (v1=10); the second then commits directly
        # because after the first commit only writer 3 caches the page --
        # which must itself be invalidated before writer 1's write.
        assert state.write_log[0][:3] == (0, 1, 10)
        # Second write invalidates writer 3's copy before committing.
        pending_inv = [d for d, p in payloads(c)
                       if isinstance(p, DSMInvalidate)]
        assert pending_inv == [3]
        c2 = ctx(0)
        state = app.handle(state, DSMInvAck(0, 3), c2)
        assert state.page_entry(0) == (20, 2)


class TestFetchAdd:
    def test_fetch_add_is_computed_at_commit(self):
        app = DSMApp(homes=1, pages=1)
        state = HomeState().with_page(0, 10, 3)
        c = ctx(0)
        state = app.handle(state, DSMFetchAdd(page=0, delta=5, writer=2,
                                              req=0), c)
        (dst, ack), = payloads(c)
        assert ack == DSMFetchAddAck(page=0, value=15, version=4, req=0)
        assert state.page_entry(0) == (15, 4)

    def test_two_queued_adds_never_lose_an_increment(self):
        app = DSMApp(homes=1, pages=1)
        state = app.handle(HomeState(), DSMRead(0, 1, 0), ctx(0))
        state = app.handle(state, DSMFetchAdd(0, 1, 2, 1), ctx(0))
        state = app.handle(state, DSMFetchAdd(0, 1, 3, 2), ctx(0))
        state = app.handle(state, DSMInvAck(0, 1), ctx(0))
        state = app.handle(state, DSMInvAck(0, 2), ctx(0))
        assert state.page_entry(0)[0] == 2


class TestWorker:
    def test_invalidate_drops_cache_and_acks(self):
        app = DSMApp(homes=1, pages=1)
        worker = WorkerState().with_cache(0, (5, 1))
        c = ctx(2)
        worker = app.handle(worker, DSMInvalidate(page=0, home=0), c)
        assert worker.cached(0) is None
        assert payloads(c) == [(0, DSMInvAck(page=0, sender=2))]

    def test_reply_caches_logs_and_issues_next_op(self):
        app = DSMApp(homes=1, pages=2, ops_per_worker=5)
        worker = WorkerState(ops_sent=1)
        c = ctx(2)
        worker = app.handle(
            worker, DSMReadData(page=1, value=8, version=2, req=0), c
        )
        assert worker.cached(1) == (8, 2)
        assert worker.reads_log == ((1, 2, 8),)
        assert worker.replies == 1
        assert worker.ops_sent == 2
        assert len(c.sends) == 1

    def test_worker_stops_at_budget(self):
        app = DSMApp(homes=1, pages=1, ops_per_worker=1)
        worker = WorkerState(ops_sent=1)
        c = ctx(2)
        worker = app.handle(
            worker, DSMWriteAck(page=0, value=1, version=1, req=0), c
        )
        assert c.sends == []
        assert worker.ops_sent == 1


class TestFetchAddAtomicity:
    def test_sequential_fetch_adds_never_share_a_base(self):
        """Each fetch-add computes at commit time: results must be the
        strictly increasing sequence 1, 2, never a repeated base."""
        app = DSMApp(homes=1, pages=1)
        c = ctx(0, n=8)
        state = app.handle(HomeState(), DSMFetchAdd(0, 1, 2, 0), c)
        (_, ack1), = payloads(c)
        assert ack1 == DSMFetchAddAck(page=0, value=1, version=1, req=0)

        # Worker 2 now holds the only copy; worker 3's fetch-add must wait
        # for 2's invalidation ack and then see the committed base.
        c = ctx(0, n=8)
        state = app.handle(state, DSMFetchAdd(0, 1, 3, 1), c)
        (inv_dst, inv), = payloads(c)
        assert inv_dst == 2 and isinstance(inv, DSMInvalidate)

        c = ctx(0, n=8)
        state = app.handle(state, DSMInvAck(page=0, sender=2), c)
        (_, ack2), = payloads(c)
        assert ack2 == DSMFetchAddAck(page=0, value=2, version=2, req=1)
        assert state.copyset(0) == (3,)

    def test_write_log_records_both_commits_in_order(self):
        app = DSMApp(homes=1, pages=1)
        state = app.handle(HomeState(), DSMFetchAdd(0, 1, 2, 0), ctx(0, n=8))
        state = app.handle(state, DSMFetchAdd(0, 1, 3, 1), ctx(0, n=8))
        state = app.handle(state, DSMInvAck(page=0, sender=2), ctx(0, n=8))
        assert [entry[1:3] for entry in state.write_log] == [
            (1, 1), (2, 2)
        ]


class TestDrainOrdering:
    def _pending_write_with_backlog(self, app):
        """Reader 2 caches; writer 3 stalls on 2's ack; a fetch-add from 4
        and a read from 5 pile up behind it."""
        state = app.handle(HomeState(), DSMRead(0, 2, 0), ctx(0, n=8))
        state = app.handle(state, DSMWrite(0, 100, 3, 1), ctx(0, n=8))
        state = app.handle(state, DSMFetchAdd(0, 1, 4, 2), ctx(0, n=8))
        state = app.handle(state, DSMRead(0, 5, 3), ctx(0, n=8))
        return state

    def test_backlog_is_queued_not_served(self):
        app = DSMApp(homes=1, pages=1)
        state = self._pending_write_with_backlog(app)
        assert state.has_pending(0)
        assert state.deferred_reads == ((0, 5, 3),)
        # The fetch-add is queued behind the write, not started.
        assert [op.kind for op in state.pending] == ["write", "fetchadd"]

    def test_commit_serves_deferred_reads_then_next_op(self):
        app = DSMApp(homes=1, pages=1)
        state = self._pending_write_with_backlog(app)
        c = ctx(0, n=8)
        state = app.handle(state, DSMInvAck(page=0, sender=2), c)
        sent = payloads(c)
        # 1) the write commits and acks writer 3 with its value,
        assert sent[0] == (
            3, DSMWriteAck(page=0, value=100, version=1, req=1)
        )
        # 2) the deferred read is served the *committed* value -- the
        #    stale pre-write copy can never leak past the commit,
        assert sent[1] == (
            5, DSMReadData(page=0, value=100, version=1, req=3)
        )
        # 3) only then does the queued fetch-add start, invalidating the
        #    writer's and the reader's fresh copies.
        inv_targets = sorted(
            dst for dst, p in sent[2:] if isinstance(p, DSMInvalidate)
        )
        assert inv_targets == [3, 5]

    def test_queued_op_commits_after_all_acks(self):
        app = DSMApp(homes=1, pages=1)
        state = self._pending_write_with_backlog(app)
        state = app.handle(state, DSMInvAck(page=0, sender=2), ctx(0, n=8))
        state = app.handle(state, DSMInvAck(page=0, sender=3), ctx(0, n=8))
        c = ctx(0, n=8)
        state = app.handle(state, DSMInvAck(page=0, sender=5), c)
        (dst, ack), = payloads(c)
        assert dst == 4
        assert ack == DSMFetchAddAck(page=0, value=101, version=2, req=2)
        assert not state.has_pending(0)


class TestWorkerInvalidation:
    def test_invalidate_drops_cache_and_acks_home(self):
        app = DSMApp(homes=1, pages=1)
        worker = WorkerState(cache=((0, (7, 1)),))
        c = ctx(2, n=8)
        worker = app.handle(worker, DSMInvalidate(page=0, home=0), c)
        assert worker.cached(0) is None
        assert payloads(c) == [(0, DSMInvAck(page=0, sender=2))]
