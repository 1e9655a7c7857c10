"""Small statistics helpers shared by the workloads and the CLI."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the repo's own definition, see
    ``repro.analysis.metrics.percentile``); 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the steadiness measure the benchmark contract uses."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worsening(metric_better: str, base: float, new: float) -> float:
    """Relative change of ``new`` against ``base``, positive = worse."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if metric_better == "lower" else -change
