"""ASCII timeline rendering of a finished run.

Produces a per-process lane diagram in the spirit of the paper's Figures
1 and 5: deliveries, sends, crashes, restores, tokens and rollbacks laid
out against virtual time.  Intended for examples, debugging, and the
narrated walkthroughs -- a trace is much easier to discuss when it looks
like the figure it reproduces.

::

    t=  5.00 | P1 <- m#3
    t= 20.00 | P1 ** CRASH
    t= 22.00 | P1 [] restore ckpt (1, 0, 22) (restart)
    t= 22.00 | P1 => token v0@52
"""

from __future__ import annotations

from typing import Iterable

from repro.runtime.trace import EventKind, SimTrace

_GLYPHS = {
    EventKind.SEND: "->",
    EventKind.DELIVER: "<-",
    EventKind.DISCARD: "xx",
    EventKind.POSTPONE: "..",
    EventKind.CRASH: "**",
    EventKind.RESTORE: "[]",
    EventKind.RESTART: "^^",
    EventKind.ROLLBACK: "<<",
    EventKind.TOKEN_SEND: "=>",
    EventKind.TOKEN_DELIVER: "=<",
    EventKind.OUTPUT: "!!",
    EventKind.CHECKPOINT: "##",
}

DEFAULT_KINDS = (
    EventKind.DELIVER,
    EventKind.DISCARD,
    EventKind.POSTPONE,
    EventKind.CRASH,
    EventKind.RESTORE,
    EventKind.RESTART,
    EventKind.ROLLBACK,
    EventKind.TOKEN_SEND,
    EventKind.TOKEN_DELIVER,
)


def _describe(event) -> str:
    kind = event.kind
    if kind is EventKind.SEND:
        return f"m#{event['msg_id']} to P{event['dst']}"
    if kind is EventKind.DELIVER:
        suffix = " (replay)" if event.get("replay") else ""
        return f"m#{event['msg_id']}{suffix}"
    if kind is EventKind.DISCARD:
        return f"m#{event['msg_id']} ({event.get('reason', '?')})"
    if kind is EventKind.POSTPONE:
        return f"m#{event['msg_id']} awaiting {event.get('awaiting')}"
    if kind is EventKind.CRASH:
        return "CRASH"
    if kind is EventKind.RESTORE:
        return f"restore ckpt {event['ckpt_uid']} ({event['reason']})"
    if kind is EventKind.RESTART:
        return (
            f"restart v{event.get('failed_version', '?')}"
            f"->v{event.get('new_version', '?')} "
            f"(replayed {event.get('replayed', 0)})"
        )
    if kind is EventKind.ROLLBACK:
        return (
            f"rollback for P{event.get('origin')}'s "
            f"v{event.get('version')}@{event.get('timestamp')} "
            f"(replayed {event.get('replayed', 0)})"
        )
    if kind is EventKind.TOKEN_SEND:
        return f"token v{event.get('version')}@{event.get('timestamp')}"
    if kind is EventKind.TOKEN_DELIVER:
        return (
            f"token from P{event.get('origin')} "
            f"v{event.get('version')}@{event.get('timestamp')}"
        )
    if kind is EventKind.OUTPUT:
        mark = "committed" if event.get("committed") else "emitted"
        return f"output {event.get('value')!r} ({mark})"
    if kind is EventKind.CHECKPOINT:
        return f"checkpoint #{event.get('ckpt_id')}"
    return str(event.fields)


def render_timeline(
    trace: SimTrace,
    *,
    kinds: Iterable[EventKind] = DEFAULT_KINDS,
    pids: Iterable[int] | None = None,
    start: float = 0.0,
    end: float | None = None,
    limit: int = 200,
) -> str:
    """Render selected trace events as one line per event.

    ``kinds``/``pids``/``start``/``end`` filter; ``limit`` caps the output
    (a note is appended when events were elided).
    """
    kind_set = set(kinds)
    pid_set = set(pids) if pids is not None else None
    lines: list[str] = []
    elided = 0
    for event in trace:
        if event.kind not in kind_set:
            continue
        if pid_set is not None and event.pid not in pid_set:
            continue
        if event.time < start or (end is not None and event.time > end):
            continue
        if len(lines) >= limit:
            elided += 1
            continue
        glyph = _GLYPHS.get(event.kind, "??")
        lines.append(
            f"t={event.time:8.2f} | P{event.pid} {glyph} {_describe(event)}"
        )
    if elided:
        lines.append(f"... {elided} more events elided (limit={limit})")
    return "\n".join(lines)


def lane_summary(trace: SimTrace, n: int) -> str:
    """One line per process: counts of the events that matter."""
    rows = []
    for pid in range(n):
        rows.append(
            f"P{pid}: "
            f"deliver={trace.count(EventKind.DELIVER, pid)} "
            f"discard={trace.count(EventKind.DISCARD, pid)} "
            f"postpone={trace.count(EventKind.POSTPONE, pid)} "
            f"crash={trace.count(EventKind.CRASH, pid)} "
            f"rollback={trace.count(EventKind.ROLLBACK, pid)}"
        )
    return "\n".join(rows)
