"""Tests for message-log prefix garbage collection (Remark 2 support)."""

import pytest

from repro.storage.log import MessageLog


def make_log(entries=6):
    log = MessageLog()
    for i in range(entries):
        log.append(i, 0, f"m{i}")
    log.flush()
    return log


def test_discard_prefix_keeps_absolute_indices():
    log = make_log()
    dropped = log.discard_prefix(3)
    assert dropped == 3
    assert log.stable_length == 6          # absolute end unchanged
    assert log.retained_stable_entries == 3
    assert [e.payload for e in log.stable_entries(3)] == ["m3", "m4", "m5"]
    assert log.entry(4).payload == "m4"


def test_discard_prefix_is_idempotent_and_monotone():
    log = make_log()
    assert log.discard_prefix(2) == 2
    assert log.discard_prefix(2) == 0
    assert log.discard_prefix(1) == 0      # already collected further
    assert log.discard_prefix(4) == 2
    assert log.gc_count == 4


def test_discard_prefix_clamps_to_stable_length():
    log = make_log(3)
    assert log.discard_prefix(100) == 3
    assert log.retained_stable_entries == 0
    assert log.stable_length == 3


def test_reading_collected_entries_raises():
    log = make_log()
    log.discard_prefix(3)
    with pytest.raises(ValueError, match="garbage-collected"):
        log.stable_entries(0)
    with pytest.raises(ValueError, match="garbage-collected"):
        log.entry(2)
    with pytest.raises(ValueError, match="garbage-collected"):
        log.all_entries(1)


def test_append_after_gc_continues_indices():
    log = make_log()
    log.discard_prefix(4)
    entry = log.append(99, 1, "new")
    assert entry.index == 6
    log.flush()
    assert log.entry(6).payload == "new"


def test_truncate_interacts_with_gc_offset():
    log = make_log()
    log.discard_prefix(2)
    dropped = log.truncate(4)               # keep absolute [2, 4)
    assert dropped == 2
    assert [e.payload for e in log.stable_entries(2)] == ["m2", "m3"]
    with pytest.raises(ValueError):
        log.truncate(1)                     # below the GC offset


def test_total_length_counts_collected_prefix():
    log = make_log(4)
    log.append(9, 0, "volatile")
    log.discard_prefix(2)
    assert log.total_length == 5
    assert log.volatile_length == 1


# ---------------------------------------------------------------------------
# GC / rollback interplay
# ---------------------------------------------------------------------------
def test_stable_entries_exactly_at_gc_boundary():
    # A checkpoint whose log_position equals the GC offset is the
    # coordinator's anchor itself: replay from it must work, returning
    # every retained entry, not raise.
    log = make_log()
    log.discard_prefix(3)
    assert [e.payload for e in log.stable_entries(3)] == ["m3", "m4", "m5"]
    with pytest.raises(ValueError, match="garbage-collected"):
        log.stable_entries(2)


def test_truncate_to_exact_gc_boundary():
    # Rollback to the anchor checkpoint: every retained entry is orphan
    # suffix.  The log ends up empty but the absolute index space keeps
    # counting from the boundary.
    log = make_log()
    log.discard_prefix(3)
    assert log.truncate(3) == 3
    assert log.stable_length == 3
    assert log.retained_stable_entries == 0
    assert log.stable_entries(3) == []
    entry = log.append(50, 1, "post-rollback")
    assert entry.index == 3
    log.flush()
    assert [e.payload for e in log.stable_entries(3)] == ["post-rollback"]


def test_rollback_replay_with_surviving_checkpoint_at_boundary():
    # The full rollback sequence against a GC'd log: the surviving
    # checkpoint sits exactly at the GC boundary (it was the anchor),
    # later entries are part orphan / part survivor.
    log = make_log(8)
    ckpt_position = 4                        # anchor checkpoint at index 4
    log.discard_prefix(ckpt_position)

    # More traffic after the sweep, partially unflushed.
    log.append(8, 1, "m8")
    log.append(9, 2, "m9")
    log.flush()

    # Rollback: flush-first discipline, then cut the orphan suffix [7, ...).
    assert log.truncate(7) == 3
    replay = log.stable_entries(ckpt_position)
    assert [e.payload for e in replay] == ["m4", "m5", "m6"]
    assert [e.index for e in replay] == [4, 5, 6]

    # Re-delivered messages land right where the orphans were cut.
    assert log.append(9, 2, "m9-again").index == 7
    assert log.total_length == 8


def test_truncate_below_gc_boundary_is_rejected():
    # A rollback must never target a checkpoint older than the GC
    # anchor -- the coordinator only collects below *globally stable*
    # checkpoints, so such a request is a protocol bug, not a legal cut.
    log = make_log()
    log.discard_prefix(4)
    with pytest.raises(ValueError, match="outside stable log"):
        log.truncate(3)
    # The failed call must not have disturbed the retained suffix.
    assert [e.payload for e in log.stable_entries(4)] == ["m4", "m5"]


def test_gc_then_rollback_end_to_end_under_protocol():
    # A full Damani-Garg run in which the stability coordinator collects
    # log prefixes *and* later failures force rollbacks over the same
    # logs; recovery must stay oracle-clean with the GC'd replay source.
    from repro.analysis.consistency import check_recovery
    from repro.harness.runner import run_experiment
    from repro.stress import build_spec, generate_case

    from dataclasses import replace

    # Output commit, 3 crashes, rollbacks; GC draws from its own stream.
    case = replace(generate_case(39), enable_gc=True)
    assert case.commit_outputs
    result = run_experiment(build_spec(case))
    assert sum(p.storage.log.gc_count for p in result.protocols) > 0
    assert result.total_rollbacks > 0
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations
