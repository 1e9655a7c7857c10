"""Exporter tests: JSON-lines trace files and the MetricsReport."""

import json

from repro.harness.reporting import render_metrics_report
from repro.harness.runner import run_experiment
from repro.obs import (
    MetricsReport,
    Tracer,
    build_scenario,
    write_jsonl,
)


def _instrumented_run():
    spec = build_scenario("quickstart")
    tracer = Tracer()
    spec.tracer = tracer
    return run_experiment(spec), tracer


def test_write_jsonl_round_trips(tmp_path):
    result, tracer = _instrumented_run()
    path = tmp_path / "trace.jsonl"
    lines = write_jsonl(
        tracer, str(path), meta={"scenario": "quickstart", "seed": 7}
    )
    records = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    assert len(records) == lines
    assert records[0]["type"] == "meta"
    assert records[0]["format"] == "repro-obs-v1"
    assert records[0]["scenario"] == "quickstart"
    by_type: dict[str, list[dict]] = {}
    for record in records[1:]:
        by_type.setdefault(record["type"], []).append(record)
    assert set(by_type) == {"event", "counter", "gauge", "histogram"}
    counters = {r["name"]: r["value"] for r in by_type["counter"]}
    assert counters["dg.tokens_broadcast"] == 3
    gauges = {r["name"] for r in by_type["gauge"]}
    assert any(name.startswith("dg.history_records.") for name in gauges)
    # Gauge series entries are (virtual time, value) pairs.
    series = next(
        r for r in by_type["gauge"] if r["name"] == "sim.virtual_time"
    )
    assert all(len(pair) == 2 for pair in series["series"])


def test_jsonl_handles_non_serialisable_event_fields(tmp_path):
    tracer = Tracer()
    tracer.event("weird", payload=object(), nested={"k": (1, 2)})
    path = tmp_path / "t.jsonl"
    write_jsonl(tracer, str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    event = records[1]
    assert event["name"] == "weird"
    assert isinstance(event["payload"], str)      # repr() fallback
    assert event["nested"] == {"k": [1, 2]}


def test_metrics_report_from_run_and_render():
    result, tracer = _instrumented_run()
    report = MetricsReport.from_run(result, tracer, wall_time_s=0.5)
    assert report.overhead is not None
    assert report.overhead.restarts == result.total_restarts
    assert report.extra["trace_signature"] == result.trace.signature()
    d = report.to_dict()
    assert d["wall_time_s"] == 0.5
    assert d["overhead"]["control_messages"] == 3
    json.dumps(d)                                  # fully serialisable
    rendered = render_metrics_report(report)
    assert "dg.tokens_broadcast" in rendered
    assert "history records (max)" in rendered
    assert "events/sec" in rendered
