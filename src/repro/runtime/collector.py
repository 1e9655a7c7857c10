"""One pause of the cyclic garbage collector over a bounded run phase.

A run of either engine mostly adds to what it holds: trace events, log
entries, clocks, histories, the outbox.  CPython's cyclic collector
traverses that growing state again and again -- a young pass every few
hundred new containers, a middle pass every ten of those, now and then
the whole heap -- and finds almost nothing to free.  :func:`collector_paused`
turns the automatic collector off for the phase and ends it with one young
collection (``gc.collect(1)``), so each object the phase made is traversed
once, inside the phase, and no traversal is handed to whatever runs next.
(Re-enabling without that collection pushed a traversal of the whole run
onto the caller: docs/PERFORMANCE.md.)

The pause is sound only for code that makes next to no cyclic garbage:
whatever the phase leaves in unreachable cycles waits for the exit
collection.  ``tests/runtime/test_collector_pause.py`` bounds that on both
engines, and every paused phase is bounded (a simulation by its horizon, a
live node's run phase by ``run_seconds``).

The collector is one per interpreter, so the nesting depth is too: only
the outermost scope disables, collects and re-enables, and scopes are
not meant to overlap across threads.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator

_depth = 0


def collections_so_far() -> int:
    """Collections of every generation this interpreter has run."""
    return sum(stats["collections"] for stats in gc.get_stats())


@contextmanager
def collector_paused(tracer: Any | None = None) -> Iterator[None]:
    """Run the body with the automatic collector off; exit with one
    young collection, then restore the collector's previous state.

    With an enabled ``repro.obs`` tracer, the outermost scope also counts
    every collection it sees (``gc.collections.gen<g>``) and times it
    (``gc.pause_wall_s.gen<g>``), the exit collection included.
    """
    global _depth
    _depth += 1
    if _depth > 1:
        try:
            yield
        finally:
            _depth -= 1
        return
    was_enabled = gc.isenabled()
    gc.disable()
    hook = _attribution_hook(tracer)
    if hook is not None:
        gc.callbacks.append(hook)
    try:
        yield
    finally:
        _depth -= 1
        try:
            gc.collect(1)
        finally:
            if hook is not None:
                gc.callbacks.remove(hook)
            if was_enabled:
                gc.enable()


def _attribution_hook(tracer: Any | None):
    """A ``gc.callbacks`` entry feeding ``tracer``, or None without one."""
    if tracer is None or not tracer.enabled:
        return None
    started = 0.0

    def hook(phase: str, info: dict[str, int]) -> None:
        nonlocal started
        if phase == "start":
            started = perf_counter()
            return
        generation = info["generation"]
        tracer.counter(f"gc.collections.gen{generation}")
        tracer.observe(
            f"gc.pause_wall_s.gen{generation}", perf_counter() - started
        )

    return hook
