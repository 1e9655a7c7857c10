"""Deterministic discrete-event simulation kernel.

The kernel is intentionally tiny: a binary heap of
``(time, priority, sequence_number, event)`` tuples.  The sequence number
is unique, so the heap orders entries by the interpreter's own tuple
comparison without ever reaching the :class:`Event`, and the execution
order is a total order: a run is a pure function of the seed and the
scheduled callbacks -- a property the recovery test-suite relies on (same
seed => byte-identical trace).

Virtual time is a ``float`` carried by the kernel; no *simulation* decision
ever reads wall-clock time.  The optional observability tracer (see
:mod:`repro.obs`) does sample the wall clock, but only to report how fast
the simulation itself is running -- it never feeds back into event order,
which is what the determinism tests pin down.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable

#: Relative tolerance for :meth:`Simulator.schedule_at` -- absolute times
#: recomputed through float arithmetic (``t1 + dt - t1`` style) can land an
#: ulp below ``now``; deltas within this relative band are clamped to zero
#: instead of raising a spurious :class:`SimulationError`.
TIME_EPSILON = 1e-9


class SimulationError(Exception):
    """Raised for kernel misuse (negative delays, running a spent kernel)."""


class Event:
    """A scheduled call, and the handle its owner cancels it with.

    The kernel fires events in ``(time, priority, seq)`` order as
    ``callback(*args)``.  ``priority`` defaults to 0; lower fires first
    among events at the same virtual time.  Cancellation is O(1): the
    event is tombstoned, not removed from the heap.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args", "cancelled", "label"
    )

    def __init__(
        self, time: float, priority: int, seq: int,
        callback: Callable[..., None], args: tuple = (), label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True


#: What :meth:`Simulator.schedule` returns is the event itself.
EventHandle = Event


def _label_root(label: str) -> str:
    """Collapse a per-instance event label to its bounded-cardinality root.

    Labels look like ``deliver#123`` or ``ckpt:2``; the suffix identifies
    the instance and would explode histogram cardinality.
    """
    if not label:
        return "unlabelled"
    return label.partition("#")[0].partition(":")[0]


class Simulator:
    """The discrete-event kernel.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()

    The kernel never advances time on its own; it jumps from event to event.
    ``run`` stops when the queue drains, when ``until`` is passed, or when
    ``max_events`` callbacks have fired.

    An observability tracer (:class:`repro.obs.Tracer`) may be attached via
    :attr:`tracer`; when present, the run loop reports per-label callback
    wall times, queue depth and virtual-time progress.  ``tracer = None``
    (the default) keeps the hot loop entirely instrumentation-free.
    """

    def __init__(self, *, tracer: Any | None = None) -> None:
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Current virtual time.
        self.now: float = 0.0
        #: Number of callbacks executed so far.
        self.events_fired: int = 0
        self._seq: int = 0
        self._running: bool = False
        self.tracer: Any | None = tracer

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    @property
    def pending_raw(self) -> int:
        """Total queue length including cancelled tombstones.

        Tombstoned events occupy heap slots until the run loop pops past
        them; the observability layer reports both this and :attr:`pending`
        so tombstone build-up (e.g. timer churn) is visible.
        """
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` time units from now.

        ``delay`` must be non-negative; zero-delay events fire after any
        already-scheduled events at the current time (sequence order).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        time, seq = self.now + delay, self._seq
        event = Event(time, priority, seq, callback, args, label)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def retarget(
        self, handle: Event, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Swap the call of a pending event, keeping its position.

        The event keeps its ``(time, priority, seq)`` key, so it fires
        exactly where it always would have -- including its place among
        same-instant ties.  Handing a periodic timer to a placeholder
        across a process's downtime and handing it back this way is
        indistinguishable from never having touched it.
        """
        handle.callback = callback
        handle.args = args
        return handle

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        ``time`` values recomputed through float arithmetic can fall a
        rounding error below ``now`` even when they mean "right now"; such
        deltas (within :data:`TIME_EPSILON`, relative) are clamped to zero
        rather than rejected.  Genuinely-past times still raise.
        """
        now = self.now
        delay = time - now
        if delay < 0.0:
            tolerance = TIME_EPSILON * max(1.0, abs(now), abs(time))
            if delay < -tolerance:
                raise SimulationError(f"negative delay: {delay!r}")
            delay = 0.0
        # The fire time is ``now + delay`` as :meth:`schedule` computes it,
        # not ``time``: the two can differ by an ulp, and every recorded
        # run has the former.
        time, seq = now + delay, self._seq
        event = Event(time, priority, seq, callback, args, label)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Execute events in order.

        ``until`` is inclusive: an event at exactly ``until`` fires.  Events
        scheduled during execution are honoured.  Re-entrant calls are
        rejected -- callbacks must not call :meth:`run`.

        When the loop stops because the queue is exhausted (or holds only
        events beyond ``until``), time fast-forwards to ``until``.  When it
        stops because ``max_events`` was reached with work still pending at
        or before ``until``, time stays at the last fired event -- jumping
        ahead of unfired events would time-warp the simulation.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        fired_this_call = 0
        tracer = self.tracer
        queue, pop = self._queue, heapq.heappop
        try:
            while queue:
                event = queue[0][3]
                if event.cancelled:
                    pop(queue)
                    if tracer is not None:
                        tracer.counter("sim.tombstones_popped")
                    continue
                if until is not None and event.time > until:
                    break
                if max_events is not None and fired_this_call >= max_events:
                    break
                pop(queue)
                self.now = event.time
                if tracer is None:
                    event.callback(*event.args)
                else:
                    start = perf_counter()
                    event.callback(*event.args)
                    elapsed = perf_counter() - start
                    tracer.counter("sim.events_fired")
                    tracer.observe(
                        f"sim.event_wall_s.{_label_root(event.label)}",
                        elapsed,
                    )
                    tracer.gauge("sim.queue_depth", len(queue))
                    tracer.gauge("sim.virtual_time", self.now)
                self.events_fired += 1
                fired_this_call += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            while queue and queue[0][3].cancelled:      # leading tombstones
                pop(queue)
            if not queue or queue[0][0] > until:
                self.now = until

    def drain(self, limit: int = 10_000_000) -> None:
        """Run to quiescence, failing loudly if ``limit`` events fire.

        Protocol bugs commonly manifest as livelock (token storms, replay
        loops); the limit converts those into a crisp test failure instead
        of a hang.
        """
        before = self.events_fired
        self.run(max_events=limit)
        if self.pending:
            raise SimulationError(
                f"simulation did not quiesce within {limit} events "
                f"({self.events_fired - before} fired this call)"
            )
