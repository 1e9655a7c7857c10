"""Live crash-window matrix: every enumerated point, a real self-SIGKILL.

The default subset exercises one window per heal policy (abort,
nothing-to-do, and the restart transition) in three cluster runs.  The
full :data:`~repro.storage.intents.LIVE_CRASH_POINTS` matrix -- twelve
cluster runs -- is CI's job: set ``REPRO_CRASHSIM_FULL=1`` to run it.
"""

import os

import pytest

from repro.live.supervisor import LiveCrashPlan
from repro.live.verify import recovery_timeline
from repro.storage.intents import LIVE_CRASH_POINTS

from tests.live.crashsim import assert_healed, run_crash_point

FULL = bool(os.environ.get("REPRO_CRASHSIM_FULL"))


def test_flush_window_self_kill_heals_by_abort(tmp_path):
    """Boot-armed ``flush:log_flushed``: the node dies with a flushed log
    but an uncommitted flush intent; the respawn's crawler aborts it and
    the run recovers through the ordinary restart path."""
    result, verdict = run_crash_point("flush:log_flushed", str(tmp_path))
    assert [(p, pt) for p, pt, _ in result.point_kills] == [
        (1, "flush:log_flushed")
    ]
    assert verdict.ok, verdict.summary()
    assert verdict.crashes == 1
    assert result.done[1]["boot"] == 2
    assert_healed(result, "flush:log_flushed")
    assert set(result.exit_codes.values()) == {0}, result.exit_codes


def test_restart_window_self_kill_heals_and_dedups_the_token(tmp_path):
    """Respawn-armed ``restart:token_logged``: an ordinary SIGKILL brings
    the node into ``on_restart``, where the armed point kills it again
    between the token log and the restart checkpoint.  The third
    incarnation aborts the restart intent, relogs the token (absorbed by
    the dedupe), and completes recovery."""
    result, verdict = run_crash_point("restart:token_logged", str(tmp_path))
    assert [(p, pt) for p, pt, _ in result.point_kills] == [
        (1, "restart:token_logged")
    ]
    assert len(result.kills) == 2
    assert verdict.ok, verdict.summary()
    assert verdict.crashes == 2
    assert result.done[1]["boot"] == 3
    assert result.done[1]["token_log_dedups"] >= 1
    assert_healed(result, "restart:token_logged")
    assert set(result.exit_codes.values()) == {0}, result.exit_codes
    # Both replacements came from a standby (the armed one, then the
    # clean one), each held for its whole downtime: the point fired in
    # exactly one incarnation, and neither started early.
    first, second = recovery_timeline(result.trace)
    assert first.released >= first.kill + 0.8
    assert second.released >= second.kill + 0.8
    assert first.restart >= first.released
    assert first.token is None or first.token < second.kill
    assert second.token is not None


def test_committed_window_needs_no_heal(tmp_path):
    """Boot-armed ``checkpoint:committed``: death lands on the first
    persist *after* the transition committed, so the image is complete
    and the crawler must not touch it."""
    result, verdict = run_crash_point("checkpoint:committed", str(tmp_path))
    assert [(p, pt) for p, pt, _ in result.point_kills] == [
        (1, "checkpoint:committed")
    ]
    assert verdict.ok, verdict.summary()
    assert result.done[1]["heal_actions"] == []
    assert result.done[1]["boot"] == 2
    assert_healed(result, "checkpoint:committed")
    assert set(result.exit_codes.values()) == {0}, result.exit_codes


@pytest.mark.skipif(
    not FULL, reason="full live crash matrix: set REPRO_CRASHSIM_FULL=1"
)
@pytest.mark.parametrize("point", LIVE_CRASH_POINTS)
def test_full_matrix_every_point_heals(point, tmp_path):
    """Arm every enumerated point in a real cluster.  Deterministic
    windows (checkpoint, flush, restart) must fire; opportunistic ones
    (rollback, compaction) fire only if the run reaches that transition
    -- either way the oracles must hold and, when the point fired, the
    heal must match the policy table."""
    kind = point.split(":", 1)[0]
    kwargs = {}
    if kind in ("rollback",):
        # Give the armed node a reason to roll back: a peer crash whose
        # recovery token can orphan it.
        kwargs["crashes"] = [LiveCrashPlan(pid=2, at=1.0, downtime=0.8)]
        kwargs["run_seconds"] = 5.5
    if kind in ("compaction",):
        kwargs.update(
            gossip_interval=0.4,
            enable_gc=True,
            compact_history=True,
            run_seconds=5.5,
        )
    result, verdict = run_crash_point(point, str(tmp_path), **kwargs)
    assert verdict.ok, verdict.summary()
    assert_healed(result, point)
    assert set(result.exit_codes.values()) == {0}, result.exit_codes
