"""Tests for the recovery-correctness oracle, including negative cases
(a deliberately broken protocol must be caught)."""

import pytest

from repro.analysis import check_recovery
from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan


def run(protocol=DamaniGargProcess, seed=0, crashes=None):
    spec = ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=40, seeds=(0, 1), initial_items=3),
        protocol=protocol,
        crashes=crashes
        if crashes is not None
        else CrashPlan().crash(20.0, 1, 2.0),
        seed=seed,
        horizon=120.0,
        config=ProtocolConfig(checkpoint_interval=8.0, flush_interval=2.5),
    )
    return run_experiment(spec)


def test_correct_protocol_passes():
    verdict = check_recovery(run())
    assert verdict.ok
    assert verdict.violations == []
    assert "no_surviving_orphan" in verdict.checks_run
    assert bool(verdict) is True


def test_verdict_carries_ground_truth():
    verdict = check_recovery(run(seed=7))
    assert len(verdict.ground_truth.states) > 50
    assert verdict.ground_truth.lost, "expected some lost states"


class BrokenNoRollback(DamaniGargProcess):
    """A protocol that ignores its orphan status: must be caught."""

    def _rollback(self, token):
        return []   # pretend nothing happened


class BrokenNoObsoleteCheck(DamaniGargProcess):
    """Delivers obsolete messages: orphans leak into surviving states."""

    def _receive_app(self, msg):
        envelope = msg.payload
        missing = self.history.missing_tokens(envelope.clock)
        if missing:
            self._held.append(msg)
            self.stats.app_postponed += 1
            return
        self._deliver(msg)


def _find_failing_seed(protocol):
    """Some seeds produce no orphans at all; scan for one that does."""
    for seed in range(20):
        result = run(protocol=DamaniGargProcess, seed=seed)
        if result.total_rollbacks > 0:
            return seed
    pytest.fail("no seed produced an orphan scenario")


def test_detects_missing_rollback():
    seed = _find_failing_seed(BrokenNoRollback)
    result = run(protocol=BrokenNoRollback, seed=seed)
    verdict = check_recovery(result)
    assert not verdict.ok
    assert any("orphan" in v for v in verdict.violations)


def test_detects_obsolete_deliveries():
    # Find a seed where the correct protocol discards something; the broken
    # protocol will instead deliver it.
    chosen = None
    for seed in range(20):
        result = run(seed=seed)
        if result.total("app_discarded") > 0:
            chosen = seed
            break
    assert chosen is not None
    result = run(protocol=BrokenNoObsoleteCheck, seed=chosen)
    verdict = check_recovery(result)
    assert not verdict.ok


class OverEagerRollback(DamaniGargProcess):
    """Rolls back to its oldest checkpoint on any token: not minimal."""

    def _receive_token(self, token):
        self.stats.tokens_received += 1
        self.storage.log_token(token)
        # Roll back unconditionally, even when not an orphan.
        if not self.history.orphaned_by(token):
            self.flush_log()
            if self.storage.log.stable_length > 0:
                # force a gratuitous rollback to the first checkpoint
                first = next(iter(self.storage.checkpoints))
                if self.trace is not None:
                    from repro.runtime.trace import EventKind

                    self.trace.record(
                        self.env.now,
                        EventKind.RESTORE,
                        self.pid,
                        ckpt_uid=first.snapshot["uid"],
                        reason="rollback",
                    )
                self._restore_checkpoint(first)
                self.storage.checkpoints.discard_after(first)
                self.storage.log.truncate(first.log_position)
                self.clock = self.clock.tick(self.pid)
                restored = self.executor.new_recovery_state()
                if self.trace is not None:
                    from repro.runtime.trace import EventKind

                    self.trace.record(
                        self.env.now,
                        EventKind.ROLLBACK,
                        self.pid,
                        origin=token.origin,
                        version=token.version,
                        timestamp=token.timestamp,
                        restored_uid=restored,
                        new_uid=self.executor.current_uid,
                        replayed=0,
                        discarded_log_entries=0,
                    )
                self.stats.note_rollback(token.origin, token.version)
        else:
            self._apply_token(token)
        self.history.observe_token(token)
        self._release_held()


def test_detects_needless_rollback():
    for seed in range(20):
        result = run(protocol=OverEagerRollback, seed=seed)
        verdict = check_recovery(result)
        if not verdict.ok and any(
            "needlessly" in v or "not recovered" in v
            for v in verdict.violations
        ):
            return
    pytest.fail("over-eager rollback was never flagged")


def test_checks_can_be_disabled():
    seed = _find_failing_seed(None)
    result = run(protocol=OverEagerRollback, seed=seed)
    verdict = check_recovery(
        result,
        expect_minimal_rollback=False,
        expect_maximum_recovery=False,
        expect_single_rollback_per_failure=False,
    )
    # With protocol-property checks off, only safety is graded.
    assert "minimal_rollback" not in verdict.checks_run
