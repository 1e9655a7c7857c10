"""The trace and the counters tell one story.

A discarded or postponed message leaves two records: a ``DISCARD`` /
``POSTPONE`` event in the ground-truth trace and a bump of the matching
:class:`~repro.protocols.base.ProtocolStats` counter.  Every protocol in
the registry must write both for every such message, duplicates
included.
"""

import dataclasses

import pytest

from repro.harness.conformance import (
    CONFORMANCE_SCHEDULES,
    PROTOCOL_REGISTRY,
    build_conformance_spec,
)
from repro.harness.runner import run_experiment
from repro.runtime.trace import EventKind

SCHEDULE = next(
    s for s in CONFORMANCE_SCHEDULES if s.name == "early-crash-mid-stage"
)

#: No per-message dedup ids: these assume FIFO channels, which a
#: duplicating network does not give them, so they run without it.
NO_DEDUP = {"peterson-kearns", "sistla-welch", "strom-yemini"}


@pytest.mark.parametrize("name", sorted(PROTOCOL_REGISTRY))
def test_discard_and_postpone_events_match_the_counters(name):
    spec = build_conformance_spec(PROTOCOL_REGISTRY[name], SCHEDULE)
    if name not in NO_DEDUP:
        spec = dataclasses.replace(spec, duplicate_rate=0.2)
    result = run_experiment(spec)
    trace = result.trace
    reasons = [event["reason"] for event in trace.events(EventKind.DISCARD)]
    if name not in NO_DEDUP:
        assert result.total("duplicates_discarded") > 0, "no duplicate met"
    assert reasons.count("duplicate") == result.total("duplicates_discarded")
    assert reasons.count("obsolete") == result.total("app_discarded")
    assert len(reasons) == reasons.count("duplicate") + reasons.count(
        "obsolete"
    )
    assert len(trace.events(EventKind.POSTPONE)) == result.total(
        "app_postponed"
    )
