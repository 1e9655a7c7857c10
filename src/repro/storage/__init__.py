"""Stable-storage substrate: checkpoints and message logs.

Models the paper's storage assumptions precisely:

- a per-process *stable storage* that survives crashes
  (:class:`~repro.storage.stable.StableStorage`);
- *checkpoints* saved to stable storage
  (:class:`~repro.storage.checkpoint.Checkpoint`);
- a receiver-side *message log* with a volatile buffer that is lost in a
  crash and an asynchronously-flushed stable suffix
  (:class:`~repro.storage.log.MessageLog`) -- the volatile/stable split is
  what makes recovery "optimistic" and creates lost states.
"""

from repro.storage.checkpoint import Checkpoint, CheckpointStore
from repro.storage.log import LogEntry, MessageLog
from repro.storage.stable import StableStorage

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "LogEntry",
    "MessageLog",
    "StableStorage",
]
