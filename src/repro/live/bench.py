"""The throughput denominator of a live run: its active window."""

from __future__ import annotations

from typing import Any

from repro.runtime.trace import EventKind

__all__ = ["active_window"]


def active_window(trace: Any) -> tuple[float, float] | None:
    """The work interval of a live trace: first app delivery to last
    committed output.  This is the honest throughput denominator -- the
    wall-clock window additionally contains the readiness barrier, any
    crash-plan sleep padding, and the post-deadline linger, none of which
    the protocol can spend delivering messages."""
    delivers = trace.events(EventKind.DELIVER)
    outputs = trace.events(EventKind.OUTPUT)
    if not delivers or not outputs:
        return None
    start = min(e.time for e in delivers)
    end = max(e.time for e in outputs)
    if end <= start:
        return None
    return start, end
