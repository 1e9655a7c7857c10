"""Fence around the live trace's direct line writer and fast merge decode.

:meth:`LiveTrace.record` formats the common field values itself and
:func:`merge_traces` decodes them itself; both must agree byte for byte
and type for type with the generic tagged-JSON codec they bypass.  The
reference here is the line as it was built before: ``compact_json`` of
``{"t", "kind", "pid", "fields": {k: codec.encode(v)}}``.
"""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ftvc import FaultTolerantVectorClock
from repro.core.recovery import DamaniGargProcess
from repro.harness.conformance import (
    CONFORMANCE_SCHEDULES,
    build_conformance_spec,
)
from repro.harness.runner import run_experiment
from repro.live import codec
from repro.live.env import LiveTrace, _decoded, merge_traces
from repro.live.framing import compact_json
from repro.obs.scenarios import build_scenario
from repro.runtime.trace import EventKind
from repro.service.kv import KVReply


def reference_line(time_, kind, pid, fields):
    return compact_json({
        "t": time_,
        "kind": kind.value,
        "pid": pid,
        "fields": {k: codec.encode(v) for k, v in fields.items()},
    }) + "\n"


def written_line(time_, kind, pid, fields):
    buf = io.StringIO()
    LiveTrace(buf, buffer_records=1).record(time_, kind, pid, **fields)
    return buf.getvalue()


def same(a, b):
    """Equal values of equal types, all the way down (NaN equals NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same(ka, kb) and same(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    return a == b


HARD_FIELDS = {
    "non-ascii": {"text": "café ☃ \U0001f600", "keyé": 1},
    "control": {"text": 'tab\tnl\ncr\r nul\x00 quote" back\\ bell\x07'},
    "bool-in-tuple": {"value": (True, 1, False, 0)},
    "nested-tuples": {"value": (1, (2, (3, ())), ("a", (4,)))},
    "empty-tuple": {"value": ()},
    "long-int-tuple": {"value": tuple(range(-5, 20))},
    "mixed-tuple": {"value": ("done", 12, 2**70, -3)},
    "tuple-of-floats": {"value": (1.5, -0.0, 2)},
    "tuple-with-none": {"value": (None, 1)},
    "nan": {"value": float("nan")},
    "infinities": {"up": float("inf"), "down": float("-inf")},
    "floats": {"a": 0.1, "b": -0.0, "c": 1e300, "d": 5e-324},
    "big-ints": {"a": 2**64, "b": -(2**63), "c": 0},
    "ftvc": {
        "clock": FaultTolerantVectorClock.of(((0, 3), (1, 0), (2, 7))),
    },
    "dataclass": {"reply": KVReply(op_id=(3, 9), key="k", value=None,
                                   version=2)},
    "set": {"ids": {3, 1, 2}, "frozen": frozenset({("a", 1), ("b", 2)})},
    "dict": {"map": {"k": [1, 2], ("t", 1): (2, 3)}},
    "list": {"items": [1, "two", None, (3,)]},
    "scalars": {"none": None, "yes": True, "no": False, "n": -7, "s": ""},
    "no-fields": {},
}


@pytest.mark.parametrize("name", sorted(HARD_FIELDS))
def test_hard_field_values_write_the_reference_line(name):
    fields = HARD_FIELDS[name]
    for time_ in (12.345678, 0, float("nan")):
        assert written_line(time_, EventKind.CUSTOM, 3, fields) == (
            reference_line(time_, EventKind.CUSTOM, 3, fields)
        )


def _emitted_fields():
    """Every field dict a simulated run records: deliveries, sends,
    outputs (committed or held), tokens, restarts, rollbacks, flushes."""
    specs = [build_scenario("stress-mix"), build_scenario("crash-storm")]
    schedule = next(
        s for s in CONFORMANCE_SCHEDULES
        if s.name == "double-sequential-crash"
    )
    specs.append(build_conformance_spec(DamaniGargProcess, schedule))
    for spec in specs:
        for event in run_experiment(spec).trace:
            yield event


def test_every_field_shape_a_run_records_writes_the_reference_line():
    kinds = set()
    for event in _emitted_fields():
        kinds.add(event.kind)
        assert written_line(
            event.time, event.kind, event.pid, event.fields
        ) == reference_line(event.time, event.kind, event.pid, event.fields)
    assert {
        EventKind.SEND, EventKind.DELIVER, EventKind.OUTPUT,
        EventKind.RESTART, EventKind.ROLLBACK, EventKind.TOKEN_SEND,
    } <= kinds


def test_merge_returns_the_recorded_values_and_types(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        trace = LiveTrace(fh, buffer_records=1)
        for index, name in enumerate(sorted(HARD_FIELDS)):
            trace.record(float(index), EventKind.CUSTOM, 0,
                         **HARD_FIELDS[name])
    merged = merge_traces([path])
    assert len(merged) == len(HARD_FIELDS)
    for event, name in zip(merged, sorted(HARD_FIELDS)):
        assert same(event.fields, HARD_FIELDS[name]), name


hashable = st.one_of(
    st.integers(), st.text(max_size=6),
    st.tuples(st.integers(), st.text(max_size=3)),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(hashable, inner, max_size=3),
        st.sets(hashable, max_size=3),
        st.frozensets(hashable, max_size=3),
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 50)
            ),
            min_size=1, max_size=4,
        ).map(FaultTolerantVectorClock.of),
    ),
    max_leaves=10,
)
# ``record(time_, kind, pid, **fields)``: a field cannot share a name
# with a parameter, so no caller can pass one.
field_names = st.text(max_size=8).filter(
    lambda name: name not in ("self", "time_", "kind", "pid")
)
field_dicts = st.dictionaries(field_names, values, max_size=5)


@settings(max_examples=300, deadline=None)
@given(
    time_=st.one_of(st.floats(), st.integers()),
    kind=st.sampled_from(list(EventKind)),
    pid=st.integers(0, 64),
    fields=field_dicts,
)
def test_written_lines_equal_the_codec_lines(time_, kind, pid, fields):
    assert written_line(time_, kind, pid, fields) == (
        reference_line(time_, kind, pid, fields)
    )


@settings(max_examples=300, deadline=None)
@given(value=values)
def test_fast_decode_equals_the_codec_decode(value):
    parsed = json.loads(compact_json(codec.encode(value)))
    assert same(_decoded(parsed), codec.decode(parsed))
