"""Online trace-schema validation.

The analysis oracles reconstruct everything from the trace, so a protocol
that records malformed trace events silently corrupts its own grading.
:class:`TraceMonitor` validates the trace discipline *as events are
recorded* and fails at the first violation -- invaluable when implementing
a new protocol against the substrate.

Checked invariants (the contract `analysis/causality.py` depends on):

- ``DELIVER.prev_uid`` is the current tip of that process's chain;
- ``RESTORE.ckpt_uid`` is on the current chain (you cannot restore a
  state that never existed or was already undone);
- ``RESTART``/``ROLLBACK`` ``restored_uid`` equals the chain tip left by
  the preceding ``RESTORE`` (+replay), and their ``new_uid`` is fresh;
- ``SEND.uid`` names an existing state of the sender;
- state uids are never minted twice;
- every ``RESTORE`` is eventually followed by a ``RESTART``/``ROLLBACK``
  on the same process before its next ``RESTORE`` (checked on `finish`).
"""

from __future__ import annotations

from repro.runtime.trace import EventKind, SimTrace, TraceEvent


class TraceDisciplineError(AssertionError):
    """A protocol broke the trace contract."""


class TraceMonitor:
    """Attach with :meth:`install`; every record() is then validated."""

    def __init__(self, n: int) -> None:
        self.n = n
        self._chains: dict[int, list] = {
            pid: [(pid, 0, 0)] for pid in range(n)
        }
        self._known: set = {(pid, 0, 0) for pid in range(n)}
        self._minted: set = set(self._known)
        self._open_restore: dict[int, tuple] = {}
        self.events_checked = 0

    # ------------------------------------------------------------------
    def install(self, trace: SimTrace) -> "TraceMonitor":
        """Wrap ``trace.record`` so every event passes through us."""
        original = trace.record

        def recording(time, kind, pid, **fields):
            event = original(time, kind, pid, **fields)
            self.check(event)
            return event

        trace.record = recording  # type: ignore[method-assign]
        return self

    # ------------------------------------------------------------------
    def check(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind is EventKind.DELIVER:
            self._on_deliver(event)
        elif kind is EventKind.RESTORE:
            self._on_restore(event)
        elif kind in (EventKind.RESTART, EventKind.ROLLBACK):
            self._on_recovery(event)
        elif kind is EventKind.SEND:
            self._on_send(event)
        self.events_checked += 1

    def _fail(self, event: TraceEvent, message: str) -> None:
        raise TraceDisciplineError(
            f"trace discipline violated at event #{event.seq} "
            f"({event.kind.value}, P{event.pid}, t={event.time}): {message}"
        )

    def _tip(self, pid: int):
        return self._chains[pid][-1]

    def _on_deliver(self, event: TraceEvent) -> None:
        pid = event.pid
        uid = event.get("uid")
        prev = event.get("prev_uid")
        if uid is None or prev is None:
            self._fail(event, "DELIVER must carry uid and prev_uid")
        if prev != self._tip(pid):
            self._fail(
                event,
                f"prev_uid {prev} is not the chain tip {self._tip(pid)}",
            )
        replay = bool(event.get("replay"))
        if not replay and uid in self._minted:
            self._fail(event, f"uid {uid} minted twice")
        if replay and uid not in self._minted:
            self._fail(event, f"replay of never-created uid {uid}")
        self._minted.add(uid)
        self._known.add(uid)
        self._chains[pid].append(uid)

    def _on_restore(self, event: TraceEvent) -> None:
        pid = event.pid
        target = event.get("ckpt_uid")
        if target is None:
            self._fail(event, "RESTORE must carry ckpt_uid")
        chain = self._chains[pid]
        if target not in chain:
            self._fail(event, f"restore target {target} not on the chain")
        while chain[-1] != target:
            chain.pop()
        self._open_restore[pid] = target

    def _on_recovery(self, event: TraceEvent) -> None:
        pid = event.pid
        restored = event.get("restored_uid")
        new_uid = event.get("new_uid")
        if restored is None or new_uid is None:
            self._fail(event, "must carry restored_uid and new_uid")
        if restored != self._tip(pid):
            self._fail(
                event,
                f"restored_uid {restored} is not the chain tip "
                f"{self._tip(pid)} (did replay diverge?)",
            )
        if new_uid in self._minted:
            self._fail(event, f"recovery state {new_uid} minted twice")
        self._minted.add(new_uid)
        self._known.add(new_uid)
        self._chains[pid].append(new_uid)
        self._open_restore.pop(pid, None)

    def _on_send(self, event: TraceEvent) -> None:
        uid = event.get("uid")
        if uid is None:
            self._fail(event, "SEND must carry the sender state uid")
        if uid not in self._known:
            self._fail(event, f"send from unknown state {uid}")

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """End-of-run check: no restore left dangling."""
        if self._open_restore:
            raise TraceDisciplineError(
                f"RESTORE without a matching RESTART/ROLLBACK on "
                f"{sorted(self._open_restore)}"
            )
