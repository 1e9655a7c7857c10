"""In-memory span recording around the calls into each layer.

The harness owns the instrumentation: :func:`timed_protocol` returns a
``DamaniGargProcess`` subclass whose four public entry points
(``on_network_message``, ``on_restart``, ``take_checkpoint``,
``flush_log``) open a span, and :class:`AppProxy` does the same for
``app.handle``.  Both are handed to the unmodified stack through
``ExperimentSpec.protocol`` / ``ExperimentSpec.app``, so nothing under
``src/`` carries a timer.

Spans live in one flat list until the run ends.  Each holds its name,
the index of the span that was open when it began (its parent, ``-1``
for a root) and start/end in ``perf_counter_ns``.  A span's *self time*
is its duration minus the part its children cover.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.recovery import DamaniGargProcess

_now = time.perf_counter_ns


class SpanRecorder:
    """Flat span log with an open-span stack (single-threaded use)."""

    __slots__ = ("spans", "_stack")

    def __init__(self) -> None:
        #: ``[name, parent_index, start_ns, end_ns]`` per span
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, stack[-1] if stack else -1, _now(), 0])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = _now()
        # An exception may unwind several spans at once (the simulator's
        # crash-point injection raises through take_checkpoint): close
        # everything opened after ``index`` too.
        stack = self._stack
        while stack and stack.pop() != index:
            pass

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self time in nanoseconds."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _, start, end), covered in zip(self.spans, child_ns):
            row = out.setdefault(
                name, {"count": 0, "total_ns": 0, "self_ns": 0}
            )
            row["count"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - covered
        return out

    def problems(self) -> list[str]:
        """Structural faults: unclosed spans, parents that do not enclose
        their children, negative self time.  Empty on a sound log."""
        faults: list[str] = []
        child_ns = [0] * len(self.spans)
        for index, (name, parent, start, end) in enumerate(self.spans):
            if end < start or end == 0:
                faults.append(f"span {index} ({name}) never closed")
                continue
            if parent >= index:
                faults.append(f"span {index} ({name}) has a later parent")
            elif parent >= 0:
                _, _, p_start, p_end = self.spans[parent]
                if start < p_start or end > p_end:
                    faults.append(
                        f"span {index} ({name}) escapes its parent {parent}"
                    )
                child_ns[parent] += end - start
        for index, (name, _, start, end) in enumerate(self.spans):
            if end - start - child_ns[index] < 0:
                faults.append(f"span {index} ({name}) has negative self time")
        return faults


def self_us(summary: dict[str, dict[str, float]], name: str) -> float:
    """Mean self time of the named span in microseconds (0 if absent)."""
    row = summary.get(name)
    return row["self_ns"] / row["count"] / 1e3 if row and row["count"] else 0.0


def span_metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics the protocol and app spans give."""
    return {
        "core.recovery.receive_us": self_us(summary, "core.recovery.receive"),
        "core.recovery.restart_ms": (
            self_us(summary, "core.recovery.restart") / 1e3
        ),
        "core.recovery.checkpoint_us": self_us(
            summary, "core.recovery.checkpoint"
        ),
        "core.recovery.flush_us": self_us(summary, "core.recovery.flush"),
        "apps.handle_us": self_us(summary, "apps.handle"),
    }


def timed_protocol(recorder: SpanRecorder) -> type[DamaniGargProcess]:
    """A ``DamaniGargProcess`` subclass reporting into ``recorder``."""

    class TimedDamaniGarg(DamaniGargProcess):
        def on_network_message(self, msg: Any) -> None:
            index = recorder.begin("core.recovery.receive")
            try:
                super().on_network_message(msg)
            finally:
                recorder.end(index)

        def on_restart(self) -> None:
            index = recorder.begin("core.recovery.restart")
            try:
                super().on_restart()
            finally:
                recorder.end(index)

        def take_checkpoint(self) -> None:
            index = recorder.begin("core.recovery.checkpoint")
            try:
                super().take_checkpoint()
            finally:
                recorder.end(index)

        def flush_log(self) -> int:
            index = recorder.begin("core.recovery.flush")
            try:
                return super().flush_log()
            finally:
                recorder.end(index)

    TimedDamaniGarg.name = DamaniGargProcess.name
    return TimedDamaniGarg


class AppProxy:
    """Wraps an application: counts handled messages, stamps the wall
    clock every ``step`` of them, and (with a recorder) spans ``handle``.

    The stamps are how an in-process workload gets completion times
    without touching the simulator: op ``k`` completed no later than the
    first stamp whose count reaches ``k``.
    """

    def __init__(
        self,
        app: Any,
        *,
        step: int = 1,
        recorder: SpanRecorder | None = None,
    ) -> None:
        self._app = app
        self._recorder = recorder
        self._step = max(1, step)
        self._next = 1            # the first handled message is stamped
        self.handled = 0
        #: ``(handled_count, time.monotonic())`` pairs, ascending
        self.stamps: list[tuple[int, float]] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._app, name)

    def initial_state(self, pid: int, n: int) -> Any:
        return self._app.initial_state(pid, n)

    def bootstrap(self, pid: int, n: int, ctx: Any) -> None:
        self._app.bootstrap(pid, n, ctx)

    def handle(self, state: Any, payload: Any, ctx: Any) -> Any:
        self.handled += 1
        if self.handled >= self._next:
            self.stamps.append((self.handled, time.monotonic()))
            self._next = self.handled + self._step
        recorder = self._recorder
        if recorder is None:
            return self._app.handle(state, payload, ctx)
        index = recorder.begin("apps.handle")
        try:
            return self._app.handle(state, payload, ctx)
        finally:
            recorder.end(index)
