"""Operator rollback: rewind a *stopped* cluster to a checkpoint frontier.

``python -m repro rollback`` rolls every node's stable-storage image back
to a chosen anchor checkpoint -- the latest one at or before ``--at``, or
the earliest retained one (``--earliest``).  This is the operator-grade
escape hatch for the cases the protocol cannot fix by itself: a bad
deploy, a poisoned input, an application bug that corrupted state *after*
it was durably checkpointed.

Three rules make it auditable and safe:

1. **Nothing is deleted.**  Checkpoints, stable log entries and sends
   past the anchor are *moved* to a durable orphan area
   (:data:`ORPHANS_KEY`) before the primary structures are rewound; an
   operator can inspect or export them indefinitely.
2. **Every run is witnessed.**  An audit record naming the anchor, the
   orphan counts, the operator's ``--reason`` and ``--witness``, and
   blake2b digests of the storage image before and after is appended both
   to a durable key (:data:`AUDIT_KEY`) inside the image and to
   ``rollback_audit.json`` in the data directory.
3. **A node's rewind is one record.**  The orphan preservation, the
   rewind of the checkpoints, the send stream and the stable log, the
   restored clock frontier and the in-image audit record are one
   ``storage.atomic()`` group, so a crash leaves the image wholly the
   old one or wholly rewound.  And a cluster's rewind starts only once
   every target image is open and has its anchor: a refusal rewinds no
   node.

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
from dataclasses import dataclass
from typing import Any

from repro.live.storage import FileStableStorage

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
    dry_run: bool = False


class RollbackError(RuntimeError):
    """No usable anchor (or no storage image) for a node."""


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def _anchor(storage: FileStableStorage, at: float | None, earliest: bool):
    """The checkpoint to rewind to; :class:`RollbackError` if none."""
    if earliest:
        anchor = next(iter(storage.checkpoints), None)
    else:
        anchor = storage.checkpoints.latest_satisfying(lambda c: c.time <= at)
    if anchor is None:
        where = "earliest" if earliest else f"at or before t={at}"
        raise RollbackError(f"p{storage.pid}: no anchor checkpoint {where}")
    return anchor


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
    function then owns the image exclusively.  The rewind is one record
    (:meth:`FileStableStorage.atomic`).
    """
    anchor = _anchor(storage, at, earliest)
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
        dry_run=dry_run,
    )
    if dry_run:
        return report

    with storage.atomic():
        # Preserve before rewinding: the orphans and the rewind they
        # come from are on disk together or not at all.
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
        # Rewind the checkpoint store, the send stream they name and the
        # stable log, and restore the durable clock frontier the anchor
        # certifies.
        storage.checkpoints.discard_after(anchor)
        storage.send_cut_to(anchor)
        if storage.log.stable_length > truncate_at:
            storage.log.truncate(truncate_at)
        if stable_own is not None:
            storage.put("stable_own", stable_own)
        tail = list(storage.get(AUDIT_KEY) or [])
        tail.append(_audit_record(report, reason, witness))
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

    Every target image is opened and given its anchor before any is
    rewound, so a :class:`RollbackError` leaves every image as it was.
    Returns ``{"reports": {pid: PidRollbackReport}, "audit_path": ...}``.
    """
    if at is None and not earliest:
        raise RollbackError("choose a frontier: --at TIME or --earliest")
    targets = list(pids) if pids is not None else list(range(n))
    storages = []
    for pid in targets:
        path = os.path.join(data_dir, f"stable_p{pid}.pickle")
        if not os.path.exists(path):
            raise RollbackError(f"p{pid}: no storage image at {path}")
        storage = FileStableStorage(pid, path)
        _anchor(storage, at, earliest)
        storages.append(storage)
    reports: dict[int, PidRollbackReport] = {}
    for storage in storages:
        reports[storage.pid] = rollback_storage(
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
