"""What every workload shares: the outcome record, the latency
conventions, and the limits that make a run invalid.

**Latency convention.**  Every operation has a *due time* and a
completion time; latency is completion minus due, a failed operation
counts as late, and ``outage_s`` is the longest any operation waited.
The open-loop workload (``service_crash``) takes the due time from the
send schedule.  The capacity workloads (``sim_steady``, ``sim_stress``,
``live_saturated``) work off a batch that is all there from the start,
so every operation is due at submission: their p50/p99 are the time by
which half / 99% of the batch was done and ``outage_s`` is the time to
the last operation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

from benchmarks.perf.stats import median

#: An operation is *late* when it completes more than this after it was due.
LATE_AFTER_S = 0.100
#: Load-generator honesty: a run whose generator lagged more than this
#: at p99 did not offer the load it claims.
MAX_LAG_P99_MS = 20.0


@dataclass
class Outcome:
    """One workload run, ready to be printed as the result line."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    #: free-form context for the envelope (never part of the contract)
    detail: dict[str, Any] = field(default_factory=dict)
    #: reasons the numbers should not be trusted (empty = valid run)
    invalid: list[str] = field(default_factory=list)


def batch_latency(
    stamps: Sequence[tuple[int, float]], start: float, total: int
) -> dict[str, float]:
    """Latency metrics of a batch due at ``start`` from ascending
    ``(completed_count, monotonic_time)`` stamps; operations beyond the
    last stamp never completed and count as late."""

    def time_to(count: int) -> float:
        for done, at in stamps:
            if done >= count:
                return at - start
        return stamps[-1][1] - start if stamps else 0.0

    on_time = 0
    for done, at in stamps:
        if at - start <= LATE_AFTER_S:
            on_time = done
    return {
        "latency_p50_ms": time_to(math.ceil(0.50 * total)) * 1e3,
        "latency_p99_ms": time_to(math.ceil(0.99 * total)) * 1e3,
        "late_share": 1.0 - on_time / total,
        "outage_s": time_to(total),
    }


#: How each end-to-end metric scales with a host that runs ``slowdown``
#: times slower than the reference: +1 grows with it (a time), -1
#: shrinks (a rate), absent = a count or a share, left alone.
_SCALES_WITH_SLOWDOWN = {
    "ops_per_s": -1,
    "cpu_ms_per_op": +1,
    "latency_p50_ms": +1,
    "latency_p99_ms": +1,
    "outage_s": +1,
}


def at_reference_speed(
    metrics: dict[str, float], slowdown: float
) -> dict[str, float]:
    """``metrics`` of a CPU-bound repetition as they would read on a
    host running at the reference speed (see ``proc.HostProbe``)."""
    return {
        name: value / slowdown ** _SCALES_WITH_SLOWDOWN.get(name, 0)
        for name, value in metrics.items()
    }


def median_by_name(rows: Sequence[dict[str, float]]) -> dict[str, float]:
    """Per metric, the median over repetitions."""
    return {
        name: median([row[name] for row in rows])
        for name in rows[0]
    }


def load_check() -> tuple[float, list[str]]:
    """1-minute load average and the invalid-run reason it implies."""
    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    if load > cores:
        return load, [
            f"1-minute load average {load:.2f} exceeds {cores} core(s) "
            "at start"
        ]
    return load, []
