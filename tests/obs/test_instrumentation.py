"""Instrumented-run tests: live counters must agree with the post-hoc
Section 6.9 accounting (:func:`repro.analysis.metrics.measure_overhead`)."""

import pytest

from repro.analysis.metrics import measure_overhead
from repro.harness.runner import run_experiment
from repro.obs import Tracer, build_scenario
from repro.runtime.trace import EventKind


@pytest.fixture(scope="module")
def instrumented_quickstart():
    spec = build_scenario("quickstart")
    tracer = Tracer()
    spec.tracer = tracer
    result = run_experiment(spec)
    return result, tracer


def test_kernel_counters(instrumented_quickstart):
    result, tracer = instrumented_quickstart
    assert tracer.counter_value("sim.events_fired") == result.sim.events_fired
    assert tracer.gauge_max("sim.queue_depth") > 0
    assert tracer.gauge_last("sim.virtual_time") == result.sim.now


def test_network_counters_match_network_bookkeeping(instrumented_quickstart):
    result, tracer = instrumented_quickstart
    net = result.network
    assert tracer.counter_value("net.sent.app") == net.sent_count["app"]
    assert tracer.counter_value("net.sent.token") == net.sent_count["token"]
    assert (
        tracer.counter_value("net.delivered.app")
        == net.delivered_count["app"]
    )
    latency = tracer.histograms["net.latency.app"]
    assert latency.count == net.delivered_count["app"]
    assert latency.min >= 0.0


def test_host_counters_match_trace(instrumented_quickstart):
    result, tracer = instrumented_quickstart
    assert tracer.counter_value("host.crashes") == result.trace.count(
        EventKind.CRASH
    )
    assert tracer.counter_value("host.restarts") == result.total_restarts


def test_protocol_counters_match_stats(instrumented_quickstart):
    result, tracer = instrumented_quickstart
    assert tracer.counter_value("dg.rollbacks") == result.total_rollbacks
    assert tracer.counter_value("dg.restarts") == result.total_restarts
    assert (
        tracer.counter_value("dg.postponed")
        == result.total("app_postponed")
    )
    assert (
        tracer.counter_value("dg.obsolete_discarded")
        == result.total("app_discarded")
    )
    assert (
        tracer.counter_value("app.replayed_transitions")
        == result.total("replayed")
    )


def test_counters_match_measure_overhead(instrumented_quickstart):
    """The ISSUE's acceptance check: live counters == post-hoc overhead."""
    result, tracer = instrumented_quickstart
    report = measure_overhead(result)
    assert (
        tracer.counter_value("dg.tokens_broadcast")
        == report.control_messages
    )
    assert tracer.counter_value("dg.piggyback_bytes") == pytest.approx(
        report.piggyback_bits_total / 8.0
    )
    assert (
        tracer.max_gauge_over("dg.history_records.")
        == report.history_records_max
    )
    assert tracer.counter_value("dg.rollbacks") == report.rollbacks
    assert tracer.counter_value("proto.checkpoints") == (
        report.checkpoints_taken
    )


def test_failure_free_run_broadcasts_no_tokens():
    """Zero control messages when failure-free -- the paper's claim, live."""
    spec = build_scenario("failure-free")
    tracer = Tracer()
    spec.tracer = tracer
    result = run_experiment(spec)
    assert tracer.counter_value("dg.tokens_broadcast") == 0
    assert tracer.counter_value("host.crashes") == 0
    assert tracer.counter_value("dg.rollbacks") == 0
    assert result.total_delivered > 0
    assert tracer.counter_value("net.sent.app") > 0


def test_partition_scenario_emits_partition_metrics():
    spec = build_scenario("partition")
    tracer = Tracer()
    spec.tracer = tracer
    run_experiment(spec)
    assert tracer.counter_value("net.partitions") == 1
    assert tracer.counter_value("net.heals") == 1
    assert tracer.counter_value("net.partition_held") > 0
    names = [e["name"] for e in tracer.events]
    assert "net.partition" in names and "net.heal" in names


def test_obs_events_include_restart_and_rollback(instrumented_quickstart):
    result, tracer = instrumented_quickstart
    names = [e["name"] for e in tracer.events]
    assert names.count("dg.restart") == result.total_restarts
    assert names.count("dg.rollback") == result.total_rollbacks
    assert names.count("host.crash") == 1
    restart = next(e for e in tracer.events if e["name"] == "dg.restart")
    assert restart["pid"] == 1
    assert restart["t"] > 0


def test_wall_time_histograms_populated(instrumented_quickstart):
    _, tracer = instrumented_quickstart
    assert tracer.histograms["run.horizon_wall_s"].count == 1
    assert tracer.histograms["run.drain_wall_s"].count == 1
    assert tracer.histograms["proto.checkpoint_wall_s"].count > 0
    assert tracer.histograms["sim.event_wall_s.deliver"].count > 0


def test_piggyback_delta_is_cheaper_than_the_full_clock_on_stress_mix():
    """Both counters speak the wire codec's bytes; the delta wins on the
    adversarial scenario even though every link's first clock -- and the
    first after each crash reset -- goes out in full."""
    spec = build_scenario("stress-mix")
    tracer = Tracer()
    spec.tracer = tracer
    run_experiment(spec)
    assert tracer.counter_value("dg.wire_clocks_sent") > 0
    assert tracer.counter_value("dg.wire_full_fallbacks") >= 1
    assert (
        tracer.counter_value("dg.wire_bytes_delta")
        < tracer.counter_value("dg.wire_bytes_full")
    )
