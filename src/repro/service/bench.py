"""The two graders every service run shares.

:func:`zipf_sampler` is the key-popularity shape of a service workload;
:func:`check_shard_trace` is the trace-side (protocol truth) oracle: each
shard's merged trace must show every supervisor crash followed by a
restart, a recovery-token broadcast, and a post-restart checkpoint --
:func:`~repro.live.verify.check_recovery`, the recovery half of
:func:`~repro.live.verify.check_live_run`.
``python -m repro serve`` grades its shards with it, and the
``service_crash`` workload of ``benchmarks/perf`` adds the client-side
exactly-once audit on top.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Any, Callable

from repro.live.verify import check_recovery
from repro.runtime.trace import EventKind, SimTrace

__all__ = ["check_shard_trace", "zipf_sampler"]


def zipf_sampler(
    rng: random.Random, keys: int, s: float
) -> Callable[[], str]:
    """A Zipf(s) key sampler over ``k0..k{keys-1}`` (rank 1 hottest)."""
    weights = [1.0 / (rank + 1) ** s for rank in range(keys)]
    cumulative, total = [], 0.0
    for w in weights:
        total += w
        cumulative.append(total)

    def sample() -> str:
        return f"k{bisect_right(cumulative, rng.random() * total)}"

    return sample


def check_shard_trace(trace: SimTrace) -> dict[str, Any]:
    """Grade one shard's merged trace: crash -> restart + token + ckpt."""
    failures = check_recovery(trace)
    return {
        "ok": not failures,
        "failures": failures,
        "crashes": trace.count(EventKind.CRASH),
        "restarts": trace.count(EventKind.RESTART),
        "tokens": trace.count(EventKind.TOKEN_SEND),
    }
