"""Overhead accounting (paper Section 6.9).

:func:`measure_overhead` condenses a finished run into the quantities the
paper's overhead analysis talks about:

1. **FTVC piggyback** -- clock entries (and estimated bits, including the
   ``log f`` version bits) attached per application message;
2. **Token broadcast** -- control messages sent, which must be zero during
   failure-free operation and ``n - 1`` per failure;
3. **History memory** -- records held per process, bounded by O(n·f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.harness.runner import ExperimentResult
from repro.runtime.trace import EventKind


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile (no interpolation).

    The nearest-rank definition: the q-th percentile of n ordered samples
    is the value at rank ``ceil(q * n)`` (1-based), clamped to at least
    rank 1 so ``q=0`` returns the minimum.  For two samples, p50 is the
    *lower* one -- ``int(q * n)`` style truncation is off by one there and
    returns the maximum instead.  Returns ``None`` for an empty list.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class OverheadReport:
    """Aggregated overhead numbers for one run."""

    n: int
    failures: int
    app_messages: int
    control_messages: int
    piggyback_entries_total: int
    piggyback_bits_total: int
    # Clock bits under the per-link delta encoding (full clock on the
    # first send of a link and after crashes, diffs otherwise).  Zero
    # for protocols that do not implement the delta scheme.
    piggyback_delta_bits_total: int
    history_records_max: int
    history_bound: int              # n * (max failures of any process + 1)
    checkpoints_taken: int
    log_flushes: int
    sync_writes: int
    rollbacks: int
    restarts: int
    replayed: int

    @property
    def piggyback_entries_per_message(self) -> float:
        if not self.app_messages:
            return 0.0
        return self.piggyback_entries_total / self.app_messages

    @property
    def piggyback_bits_per_message(self) -> float:
        if not self.app_messages:
            return 0.0
        return self.piggyback_bits_total / self.app_messages

    @property
    def wire_bytes_per_message(self) -> float:
        """Full-clock piggyback cost per app message, in bytes."""
        if not self.app_messages:
            return 0.0
        return self.piggyback_bits_total / 8 / self.app_messages

    @property
    def delta_wire_bytes_per_message(self) -> float | None:
        """Delta-encoded piggyback cost per app message (None if the
        protocol does not delta-encode its clocks)."""
        if not self.app_messages or not self.piggyback_delta_bits_total:
            return None
        return self.piggyback_delta_bits_total / 8 / self.app_messages

    @property
    def fsyncs_per_message(self) -> float:
        if not self.app_messages:
            return 0.0
        return self.sync_writes / self.app_messages

    @property
    def control_messages_per_failure(self) -> float:
        if not self.failures:
            return 0.0
        return self.control_messages / self.failures

    @property
    def history_within_bound(self) -> bool:
        return self.history_records_max <= self.history_bound

    def to_dict(self) -> dict:
        """JSON-serialisable form, fields plus the derived ratios.

        Consumed by the metrics report of ``python -m repro trace``.
        """
        from dataclasses import asdict

        out = asdict(self)
        out["piggyback_entries_per_message"] = (
            self.piggyback_entries_per_message
        )
        out["piggyback_bits_per_message"] = self.piggyback_bits_per_message
        out["wire_bytes_per_message"] = self.wire_bytes_per_message
        out["delta_wire_bytes_per_message"] = (
            self.delta_wire_bytes_per_message
        )
        out["fsyncs_per_message"] = self.fsyncs_per_message
        out["control_messages_per_failure"] = (
            self.control_messages_per_failure
        )
        out["history_within_bound"] = self.history_within_bound
        return out


def measure_overhead(result: ExperimentResult) -> OverheadReport:
    """Extract the Section 6.9 overhead quantities from ``result``."""
    failures = result.trace.count(EventKind.CRASH)
    history_max = 0
    for protocol in result.protocols:
        history = getattr(protocol, "history", None)
        if history is not None and hasattr(history, "size"):
            history_max = max(history_max, history.size())
    max_per_process_failures = max(
        (host.crash_count for host in result.hosts), default=0
    )
    return OverheadReport(
        n=result.spec.n,
        failures=failures,
        app_messages=result.total("app_sent"),
        control_messages=result.total("control_sent"),
        piggyback_entries_total=result.total("piggyback_entries"),
        piggyback_bits_total=result.total("piggyback_bits"),
        piggyback_delta_bits_total=result.total("piggyback_delta_bits"),
        history_records_max=history_max,
        history_bound=result.spec.n * (max_per_process_failures + 1),
        checkpoints_taken=sum(
            p.storage.checkpoints.taken_count for p in result.protocols
        ),
        log_flushes=sum(
            p.storage.log.flush_count for p in result.protocols
        ),
        sync_writes=sum(p.storage.sync_writes for p in result.protocols),
        rollbacks=result.total_rollbacks,
        restarts=result.total_restarts,
        replayed=result.total("replayed"),
    )


@dataclass
class RecoveryLatency:
    """Timing of one failure's recovery.

    - ``restart_latency``: crash -> the failed process computing again
      (includes the scheduled downtime; anything beyond it is protocol
      waiting).
    - ``settle_latency``: crash -> the last recovery action anywhere that
      is attributable to this failure (rollbacks at peers, the restart
      itself) -- when the whole system has absorbed the failure.
    """

    pid: int
    crash_time: float
    restart_time: float | None
    settle_time: float | None

    @property
    def restart_latency(self) -> float | None:
        if self.restart_time is None:
            return None
        return self.restart_time - self.crash_time

    @property
    def settle_latency(self) -> float | None:
        if self.settle_time is None:
            return None
        return self.settle_time - self.crash_time


def recovery_latencies(result: ExperimentResult) -> list[RecoveryLatency]:
    """Per-crash recovery timing, reconstructed from the trace.

    The restart is matched as the failed process's first RESTART event
    after the crash; the settle point is the latest of that restart and
    every ROLLBACK that falls between this crash's recovery and the next
    crash (rollbacks are attributed by time window, which is exact for
    non-overlapping recoveries and approximate when recoveries overlap).
    """
    crashes = result.trace.events(EventKind.CRASH)
    restarts = result.trace.events(EventKind.RESTART)
    rollbacks = result.trace.events(EventKind.ROLLBACK)
    latencies: list[RecoveryLatency] = []
    for index, crash in enumerate(crashes):
        next_crash_time = (
            crashes[index + 1].time if index + 1 < len(crashes) else None
        )
        restart = next(
            (
                e
                for e in restarts
                if e.pid == crash.pid and e.time >= crash.time
            ),
            None,
        )
        settle = restart.time if restart is not None else None
        for rollback in rollbacks:
            if rollback.time < crash.time:
                continue
            if next_crash_time is not None and rollback.time >= next_crash_time:
                continue
            settle = max(settle or 0.0, rollback.time)
        latencies.append(
            RecoveryLatency(
                pid=crash.pid,
                crash_time=crash.time,
                restart_time=restart.time if restart is not None else None,
                settle_time=settle,
            )
        )
    return latencies
