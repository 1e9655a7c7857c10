"""Integration tests for the Damani-Garg protocol (paper Fig. 4, Sec. 6)."""

import pytest

from repro.apps import PingPongApp, RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan
from repro.sim.network import DeliveryOrder
from repro.runtime.trace import EventKind


def run(
    *,
    n=4,
    app=None,
    crashes=None,
    seed=0,
    horizon=120.0,
    order=DeliveryOrder.RANDOM,
    config=None,
):
    spec = ExperimentSpec(
        n=n,
        app=app or RandomRoutingApp(hops=40, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=crashes,
        seed=seed,
        horizon=horizon,
        order=order,
        config=config or ProtocolConfig(checkpoint_interval=8.0,
                                        flush_interval=2.5),
    )
    return run_experiment(spec)


class TestFailureFree:
    def test_no_recovery_activity_without_failures(self):
        result = run(crashes=None)
        assert result.total_restarts == 0
        assert result.total_rollbacks == 0
        assert result.total("tokens_sent") == 0
        assert result.total("control_sent") == 0
        assert result.trace.count(EventKind.DISCARD) == 0

    def test_work_actually_happens(self):
        result = run(crashes=None)
        assert result.total_delivered > 50
        assert result.total("app_sent") > 50

    def test_piggyback_is_exactly_n_entries_per_message(self):
        result = run(n=5, crashes=None)
        assert (
            result.total("piggyback_entries")
            == result.total("app_sent") * 5
        )

    def test_deterministic_given_seed(self):
        a = run(seed=3, crashes=CrashPlan().crash(20.0, 1, 2.0))
        b = run(seed=3, crashes=CrashPlan().crash(20.0, 1, 2.0))
        assert a.trace.signature() == b.trace.signature()

    def test_different_seeds_differ(self):
        a = run(seed=1)
        b = run(seed=2)
        assert a.trace.signature() != b.trace.signature()


class TestSingleFailure:
    def test_restart_broadcasts_one_token_per_peer(self):
        result = run(crashes=CrashPlan().crash(20.0, 1, 2.0))
        assert result.total_restarts == 1
        assert result.total("tokens_sent") == result.spec.n - 1
        assert result.trace.count(EventKind.TOKEN_SEND) == 1

    def test_version_number_increments(self):
        result = run(crashes=CrashPlan().crash(20.0, 1, 2.0))
        failed = result.protocols[1]
        assert failed.clock[1].version == 1
        survivor = result.protocols[0]
        assert survivor.clock[0].version == 0

    def test_restart_takes_fresh_checkpoint(self):
        """Section 6.2: the new checkpoint preserves the version number."""
        result = run(crashes=CrashPlan().crash(20.0, 1, 2.0))
        failed = result.protocols[1]
        latest = failed.storage.checkpoints.latest_satisfying(lambda c: True)
        restart_event = result.trace.last(EventKind.RESTART, pid=1)
        assert restart_event is not None
        ckpts_after = [
            e
            for e in result.trace.events(EventKind.CHECKPOINT, pid=1)
            if e.seq > restart_event.seq
        ]
        assert ckpts_after, "no checkpoint taken at restart"
        first = ckpts_after[0]
        assert first.time == restart_event.time

    def test_replay_recovers_stable_log(self):
        result = run(crashes=CrashPlan().crash(20.0, 1, 2.0))
        restart_event = result.trace.last(EventKind.RESTART, pid=1)
        assert restart_event is not None
        assert restart_event["replayed"] >= 0
        # Replayed deliveries are flagged in the trace.
        replays = [
            e
            for e in result.trace.events(EventKind.DELIVER, pid=1)
            if e["replay"]
        ]
        assert len(replays) >= restart_event["replayed"]

    def test_rollbacks_only_on_orphans(self):
        from repro.analysis import check_recovery

        result = run(crashes=CrashPlan().crash(20.0, 1, 2.0), seed=7)
        verdict = check_recovery(result)
        assert verdict.ok, verdict.violations


class TestMultipleFailures:
    def test_concurrent_failures_recover(self):
        from repro.analysis import check_recovery

        result = run(crashes=CrashPlan().concurrent(25.0, [0, 2], 3.0))
        assert result.total_restarts == 2
        assert check_recovery(result).ok

    def test_repeated_failure_of_same_process(self):
        from repro.analysis import check_recovery

        result = run(
            crashes=CrashPlan().crash(15.0, 1, 2.0).crash(35.0, 1, 2.0)
        )
        failed = result.protocols[1]
        assert failed.clock[1].version == 2
        assert check_recovery(result).ok

    def test_at_most_one_rollback_per_failure(self):
        result = run(
            crashes=CrashPlan().crash(15.0, 1, 2.0).crash(30.0, 2, 2.0),
            seed=5,
        )
        assert result.max_rollbacks_for_single_failure() <= 1


class TestMessageHandling:
    def test_obsolete_messages_discarded(self):
        # With enough traffic and a failure, some in-flight messages from
        # lost/orphan states get discarded.
        for seed in range(10):
            result = run(crashes=CrashPlan().crash(20.0, 1, 2.0), seed=seed)
            if result.total("app_discarded") > 0:
                break
        else:
            pytest.fail("no run produced an obsolete message")
        discards = result.trace.events(EventKind.DISCARD)
        assert all(e["reason"] == "obsolete" for e in discards)

    def test_postponed_messages_eventually_delivered_or_discarded(self):
        found = False
        for seed in range(15):
            result = run(crashes=CrashPlan().crash(20.0, 1, 2.0), seed=seed)
            if result.total("app_postponed") > 0:
                found = True
                for protocol in result.protocols:
                    assert protocol._held == [], "messages stuck in hold"
        assert found, "no run postponed a message"

    def test_no_fifo_assumption(self):
        """The protocol must behave identically-correctly under reordering."""
        from repro.analysis import check_recovery

        for order in (DeliveryOrder.RANDOM, DeliveryOrder.FIFO):
            result = run(
                order=order, crashes=CrashPlan().crash(20.0, 1, 2.0), seed=11
            )
            assert check_recovery(result).ok


class TestTokenHandling:
    def test_tokens_logged_synchronously(self):
        result = run(crashes=CrashPlan().crash(20.0, 1, 2.0))
        for protocol in result.protocols:
            if protocol.pid == 1:
                continue
            assert len(protocol.storage.tokens) == protocol.stats.tokens_received

    def test_rollback_ticks_timestamp_not_version(self):
        result = run(crashes=CrashPlan().crash(20.0, 1, 2.0), seed=7)
        rollbacks = result.trace.events(EventKind.ROLLBACK)
        for event in rollbacks:
            protocol = result.protocols[event.pid]
            assert protocol.clock[event.pid].version == 0


class TestRetransmissionExtension:
    def test_retransmit_resends_concurrent_messages(self):
        config = ProtocolConfig(
            checkpoint_interval=8.0,
            flush_interval=2.5,
            retransmit_on_token=True,
        )
        total = 0
        for seed in range(8):
            result = run(
                crashes=CrashPlan().crash(20.0, 1, 2.0),
                seed=seed,
                config=config,
            )
            total += result.total("retransmitted")
            from repro.analysis import check_recovery

            assert check_recovery(result).ok
        assert total > 0, "retransmission never triggered"

    def test_duplicates_are_suppressed(self):
        config = ProtocolConfig(
            checkpoint_interval=8.0,
            flush_interval=2.5,
            retransmit_on_token=True,
        )
        for seed in range(8):
            result = run(
                crashes=CrashPlan().crash(20.0, 1, 2.0),
                seed=seed,
                config=config,
            )
            if result.total("duplicates_discarded") > 0:
                return
        pytest.fail("no duplicate was ever suppressed")


class TestPingPong:
    def test_pairs_survive_a_failure(self):
        from repro.analysis import check_recovery

        result = run(
            n=4,
            app=PingPongApp(rounds=60),
            crashes=CrashPlan().crash(10.0, 0, 1.0),
            seed=2,
        )
        assert check_recovery(result).ok
