"""Operator rollback: rewind a *stopped* cluster to a checkpoint frontier.

``python -m repro rollback`` rolls every node's stable-storage image back
to a chosen anchor checkpoint -- the latest one at or before ``--at``, or
the earliest retained one (``--earliest``).  This is the operator-grade
escape hatch for the cases the protocol cannot fix by itself: a bad
deploy, a poisoned input, an application bug that corrupted state *after*
it was durably checkpointed.

Three rules make it auditable:

1. **Nothing is deleted.**  Checkpoints, stable log entries and sends
   past the anchor are *moved* to a durable orphan area
   (:data:`ORPHANS_KEY`) before the primary structures are rewound; an
   operator can inspect or export them indefinitely.
2. **Every run is witnessed.**  An audit record naming the anchor, the
   orphan counts, the operator's ``--reason`` and ``--witness``, and
   blake2b digests of the storage image before and after is appended both
   to a durable key (:data:`AUDIT_KEY`) inside the image and to
   ``rollback_audit.json`` in the data directory.
3. **Every crash window is covered.**  The whole transition runs under an
   ``operator-rollback`` write-ahead intent
   (:mod:`repro.storage.intents`); a SIGKILL at any persist boundary is
   rolled *forward* by the startup crawler from the recorded payload, so
   a half-rewound image cannot boot.

After the rollback, restarting the cluster over the same data directory
recovers through the ordinary ``on_restart`` path: each node restores its
anchor, broadcasts a recovery token, and Remark-1 retransmission (every
checkpoint names its end of the send stream) re-drives the lost
interval.
Orphaned records are *not* re-presented -- the operator asked for those
events to be undone.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any

from repro.live.storage import FileStableStorage
from repro.storage import intents
from repro.storage.intents import heal

#: Durable orphan area: list of preservation records, one per rollback.
ORPHANS_KEY = "operator_orphans"
#: Durable copy of the witnessed audit records.
AUDIT_KEY = "operator_rollback_audit"


@dataclass
class PidRollbackReport:
    """What one node's rewind did (or would do, under ``--dry-run``)."""

    pid: int
    anchor_ckpt_id: int
    anchor_time: float
    anchor_log_position: int
    checkpoints_orphaned: int
    log_entries_orphaned: int
    stable_own: Any
    digest_before: str
    digest_after: str | None = None   # None on dry runs
    heal_actions: list[dict[str, Any]] = field(default_factory=list)
    dry_run: bool = False


class RollbackError(RuntimeError):
    """No usable anchor (or no storage image) for a node."""


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def _choose_anchor(storage: FileStableStorage, at: float | None,
                   earliest: bool):
    checkpoints = list(storage.checkpoints)
    if not checkpoints:
        return None
    if earliest:
        return checkpoints[0]
    return storage.checkpoints.latest_satisfying(lambda c: c.time <= at)


def rollback_storage(
    storage: FileStableStorage,
    *,
    at: float | None = None,
    earliest: bool = False,
    reason: str = "",
    witness: str = "",
    dry_run: bool = False,
) -> PidRollbackReport:
    """Rewind one node's image to its anchor checkpoint.

    The caller guarantees the owning node process is stopped; this
    function then owns the image exclusively.
    """
    # Repair any in-flight intent a crashed incarnation left behind --
    # the frontier below must be computed against a consistent image.
    heal_actions = [] if dry_run else heal(storage)
    anchor = _choose_anchor(storage, at, earliest)
    if anchor is None:
        where = "earliest" if earliest else f"at or before t={at}"
        raise RollbackError(
            f"p{storage.pid}: no anchor checkpoint {where}"
        )
    orphan_ckpts = [
        c for c in storage.checkpoints if c.ckpt_id > anchor.ckpt_id
    ]
    truncate_at = anchor.log_position
    orphan_entries = (
        list(storage.log.stable_entries(truncate_at))
        if storage.log.stable_length > truncate_at
        else []
    )
    orphan_sends = storage.sends_after(anchor)
    anchor_clock = anchor.extras.get("clock")
    stable_own = (
        anchor_clock[storage.pid] if anchor_clock is not None else None
    )
    report = PidRollbackReport(
        pid=storage.pid,
        anchor_ckpt_id=anchor.ckpt_id,
        anchor_time=anchor.time,
        anchor_log_position=truncate_at,
        checkpoints_orphaned=len(orphan_ckpts),
        log_entries_orphaned=len(orphan_entries),
        stable_own=stable_own,
        digest_before=_digest(storage.path),
        heal_actions=heal_actions,
        dry_run=dry_run,
    )
    if dry_run:
        return report

    intent = storage.begin_intent(
        intents.OPERATOR_ROLLBACK,
        anchor_ckpt_id=anchor.ckpt_id,
        truncate_at=truncate_at,
        stable_own=stable_own,
        reason=reason,
        witness=witness,
    )
    # Step 1: preserve before rewinding.  This persist is the point of no
    # return -- from here a crash heals forward to the anchored frontier.
    storage.advance_intent(intent, "orphans_preserved")
    area = list(storage.get(ORPHANS_KEY) or [])
    area.append(
        {
            "preserved_at": time.time(),
            "anchor_ckpt_id": anchor.ckpt_id,
            "reason": reason,
            "witness": witness,
            "checkpoints": orphan_ckpts,
            "entries": orphan_entries,
            "sends": orphan_sends,
        }
    )
    storage.put(ORPHANS_KEY, area)
    # Step 2: rewind the checkpoint store and the send stream they name
    # (the cut rides the next step's persist).
    storage.advance_intent(intent, "checkpoints_discarded")
    storage.checkpoints.discard_after(anchor)
    storage.send_cut_to(anchor)
    # Step 3: rewind the stable log and restore the durable clock
    # frontier the anchor certifies.
    storage.advance_intent(intent, "log_truncated")
    if storage.log.stable_length > truncate_at:
        storage.log.truncate(truncate_at)
    if stable_own is not None:
        storage.put("stable_own", stable_own)
    # Commit rides the durable audit write: once the record is on disk
    # the intent-free image is the rolled-back one.
    storage.commit_intent(intent)
    audit = _audit_record(report, reason, witness)
    tail = list(storage.get(AUDIT_KEY) or [])
    tail.append(audit)
    storage.put(AUDIT_KEY, tail)
    report.digest_after = _digest(storage.path)
    return report


def _audit_record(
    report: PidRollbackReport, reason: str, witness: str
) -> dict[str, Any]:
    return {
        "rolled_back_at": time.time(),
        "pid": report.pid,
        "anchor_ckpt_id": report.anchor_ckpt_id,
        "anchor_time": report.anchor_time,
        "anchor_log_position": report.anchor_log_position,
        "checkpoints_orphaned": report.checkpoints_orphaned,
        "log_entries_orphaned": report.log_entries_orphaned,
        "digest_before": report.digest_before,
        "reason": reason,
        "witness": witness,
    }


def rollback_cluster(
    data_dir: str,
    n: int,
    *,
    at: float | None = None,
    earliest: bool = False,
    reason: str = "",
    witness: str = "",
    dry_run: bool = False,
    pids: list[int] | None = None,
) -> dict[str, Any]:
    """Rewind every node image under ``data_dir``; write the audit file.

    Returns ``{"reports": {pid: PidRollbackReport}, "audit_path": ...}``.
    """
    if at is None and not earliest:
        raise RollbackError("choose a frontier: --at TIME or --earliest")
    targets = list(pids) if pids is not None else list(range(n))
    reports: dict[int, PidRollbackReport] = {}
    for pid in targets:
        path = os.path.join(data_dir, f"stable_p{pid}.pickle")
        if not os.path.exists(path):
            raise RollbackError(f"p{pid}: no storage image at {path}")
        storage = FileStableStorage(pid, path)
        reports[pid] = rollback_storage(
            storage,
            at=at,
            earliest=earliest,
            reason=reason,
            witness=witness,
            dry_run=dry_run,
        )
    audit_path = None
    if not dry_run:
        audit_path = os.path.join(data_dir, "rollback_audit.json")
        records = []
        if os.path.exists(audit_path):
            with open(audit_path, "r", encoding="utf-8") as fh:
                records = json.load(fh)
        for pid in sorted(reports):
            entry = _audit_record(reports[pid], reason, witness)
            entry["digest_after"] = reports[pid].digest_after
            records.append(entry)
        tmp = audit_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, default=repr)
        os.replace(tmp, audit_path)
    return {"reports": reports, "audit_path": audit_path}


def describe(report: PidRollbackReport) -> str:
    head = "would rewind" if report.dry_run else "rewound"
    return (
        f"p{report.pid}: {head} to checkpoint "
        f"#{report.anchor_ckpt_id} (t={report.anchor_time:.3f}, "
        f"log@{report.anchor_log_position}); orphaned "
        f"{report.checkpoints_orphaned} checkpoint(s), "
        f"{report.log_entries_orphaned} log entr(ies)"
    )


__all__ = [
    "AUDIT_KEY",
    "ORPHANS_KEY",
    "PidRollbackReport",
    "RollbackError",
    "describe",
    "rollback_cluster",
    "rollback_storage",
]
