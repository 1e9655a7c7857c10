"""Task descriptors for the parallel execution engine.

A :class:`Task` is the unit of work :class:`~repro.exec.runner.ParallelRunner`
ships to a worker process: a *reference* to a module-level callable (as a
``"module:function"`` string, so it pickles by name under any start method)
plus a JSON-safe plain-data payload.  Keeping the payload plain data buys
three things at once:

- workers can rebuild the real objects themselves (no pickling of live
  simulators or protocol instances across process boundaries);
- the task has a *stable identity* -- :func:`task_key` hashes the callable
  reference and the canonical JSON of the payload, which is what the
  on-disk :class:`~repro.exec.cache.ResultCache` is keyed by;
- two runs with the same payload are guaranteed to describe the same
  computation, which is the determinism contract the parallel-vs-serial
  equivalence tests enforce.

Cache keys also fold in :func:`code_fingerprint`, a digest of every
``repro`` source file, so any code change invalidates every cached result
(see ``docs/PARALLELISM.md`` for the caveats).
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Task:
    """One unit of work for the engine.

    ``fn`` is a ``"package.module:callable"`` reference resolved *inside*
    the worker; ``payload`` is the callable's single argument and must be
    JSON-serialisable.  ``label`` is only for progress lines; ``cacheable``
    opts the task out of the result cache (timing measurements must never
    be served from disk).
    """

    fn: str
    payload: Any = None
    label: str = ""
    cacheable: bool = True

    def __post_init__(self) -> None:
        if ":" not in self.fn:
            raise ValueError(
                f"task fn must be 'module:callable', got {self.fn!r}"
            )


@dataclass
class TaskOutcome:
    """What happened to one task, merged back in submission order."""

    index: int
    value: Any = None
    error: str | None = None      # traceback text if the callable raised
    crashed: bool = False         # the worker process died mid-task
    cached: bool = False          # served from the on-disk result cache
    wall_s: float = 0.0
    label: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None and not self.crashed


def resolve_fn(ref: str) -> Callable[[Any], Any]:
    """Import and return the callable a ``"module:function"`` ref names."""
    module_name, _, attr = ref.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{ref!r} does not name a callable")
    return obj


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file (path + contents).

    Cache entries are only valid for the exact code that produced them;
    hashing the whole package is coarse but safe -- any source change
    invalidates everything, and a stale hit can never survive a refactor.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def task_key(task: Task) -> str:
    """Stable cache key: fn ref + canonical payload JSON + code fingerprint.

    Raises ``TypeError`` if the payload is not JSON-serialisable -- a task
    whose identity cannot be written down cannot be cached or replayed.
    """
    blob = json.dumps(
        {"fn": task.fn, "payload": task.payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.blake2b(digest_size=16)
    digest.update(code_fingerprint().encode("utf-8"))
    digest.update(blob.encode("utf-8"))
    return digest.hexdigest()
