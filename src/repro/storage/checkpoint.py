"""Checkpoints: periodic state saves to stable storage."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterator

#: Extras key of a checkpoint's Remark-1 send history, a
#: :class:`SendHistory` (``benchmarks/perf/replay.py`` iterates it for
#: its sender-side samples).
SEND_LOG = "send_log"


class SendHistory:
    """The sends made before a checkpoint: the prefix ``[0, end)`` of the
    storage's send stream (``StableStorage.sends``), read through the
    stream instead of copied out of it.

    It pickles as ``end`` alone.  A storage that loads a checkpoint binds
    its history back to the stream (``StableStorage.adopt``); an unbound
    one still knows its ``end`` but cannot be read.
    """

    __slots__ = ("end", "_stream")

    def __init__(self, end: int, stream: list[Any] | None = None) -> None:
        self.end = end
        self._stream = stream

    def __reduce__(self):
        return SendHistory, (self.end,)

    def bind(self, stream: list[Any]) -> None:
        self._stream = stream

    def __iter__(self) -> Iterator[Any]:
        if self._stream is None:
            raise RuntimeError(
                f"send history [0, {self.end}) read before a storage "
                "bound it to its send stream"
            )
        return islice(self._stream, self.end)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SendHistory):
            return NotImplemented
        return self.end == other.end

    def __repr__(self) -> str:
        return f"SendHistory(end={self.end})"


@dataclass(frozen=True)
class Checkpoint:
    """A recovery point.

    ``log_position`` is the receive-order index such that replaying stable
    log entries ``[log_position:]`` on top of ``snapshot`` reconstructs later
    states.  ``extras`` holds protocol data that must be restored with the
    state (the paper restores the FTVC and the history with a checkpoint).
    """

    ckpt_id: int
    time: float
    snapshot: dict[str, Any]
    log_position: int
    extras: dict[str, Any] = field(default_factory=dict)


class CheckpointStore:
    """An ordered collection of checkpoints on stable storage.

    Supports the operations the protocols need: take, latest, scan backwards
    for the maximum checkpoint satisfying a predicate (the paper's rollback
    step I), discard a suffix after rollback, and garbage-collect a prefix
    once a global recovery line has advanced.
    """

    def __init__(self) -> None:
        self._checkpoints: list[Checkpoint] = []
        self._next_id = 0
        self.taken_count = 0
        self.discarded_count = 0

    def take(
        self,
        time: float,
        snapshot: dict[str, Any],
        log_position: int,
        extras: dict[str, Any] | None = None,
    ) -> Checkpoint:
        ckpt = Checkpoint(
            ckpt_id=self._next_id,
            time=time,
            snapshot=snapshot,
            log_position=log_position,
            extras=dict(extras or {}),
        )
        self._next_id += 1
        self._checkpoints.append(ckpt)
        self.taken_count += 1
        return ckpt

    def latest(self) -> Checkpoint:
        if not self._checkpoints:
            raise RuntimeError("no checkpoint on stable storage")
        return self._checkpoints[-1]

    def __len__(self) -> int:
        return len(self._checkpoints)

    def __iter__(self):
        return iter(self._checkpoints)

    def latest_satisfying(self, predicate) -> Checkpoint | None:
        """The maximum (most recent) checkpoint for which ``predicate`` holds.

        This is the scan in the paper's Rollback step: restore the maximum
        checkpoint whose history shows it is not an orphan.
        """
        for ckpt in reversed(self._checkpoints):
            if predicate(ckpt):
                return ckpt
        return None

    def discard_after(self, ckpt: Checkpoint) -> int:
        """Drop every checkpoint strictly newer than ``ckpt`` (rollback)."""
        keep = 0
        for i, existing in enumerate(self._checkpoints):
            if existing.ckpt_id == ckpt.ckpt_id:
                keep = i + 1
                break
        else:
            raise ValueError(f"checkpoint {ckpt.ckpt_id} not in store")
        dropped = len(self._checkpoints) - keep
        del self._checkpoints[keep:]
        self.discarded_count += dropped
        return dropped

    def garbage_collect_before(self, ckpt_id: int) -> int:
        """Drop checkpoints older than ``ckpt_id`` (space reclamation,
        paper Remark 2 / Wang et al. [28])."""
        keep = [c for c in self._checkpoints if c.ckpt_id >= ckpt_id]
        dropped = len(self._checkpoints) - len(keep)
        self._checkpoints = keep
        self.discarded_count += dropped
        return dropped
