"""``heal``: the startup step for a reopened storage image, a no-op.

Every durable transition is one record of the storage log: the
protocol's checkpoints, flushes, restarts, rollbacks and GC sweeps, and
the operator's rewind of a stopped node (``python -m repro rollback``),
each run inside ``StableStorage.atomic()``.  A crash therefore leaves
each of them whole or absent, and no image holds a half-done transition
to finish.  The name stays for callers that reopen an image and then
heal it (``benchmarks/perf`` times "reload + heal").
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.stable import StableStorage


def heal(storage: "StableStorage") -> list[dict[str, Any]]:
    """Return the repairs made to ``storage``: none, and no write."""
    return []
