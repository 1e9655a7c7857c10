"""Tests for the Section 6.9 overhead accounting."""

from repro.analysis import measure_overhead
from repro.apps import RandomRoutingApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan


def run(n=4, crashes=None, seed=0):
    spec = ExperimentSpec(
        n=n,
        app=RandomRoutingApp(hops=40, seeds=(0, 1), initial_items=3),
        protocol=DamaniGargProcess,
        crashes=crashes,
        seed=seed,
        horizon=100.0,
        config=ProtocolConfig(checkpoint_interval=8.0, flush_interval=2.5),
    )
    return run_experiment(spec)


def test_failure_free_run_has_zero_control_messages():
    """Section 6.9: 'Except application messages, the protocol causes no
    extra messages to be sent during failure-free run.'"""
    report = measure_overhead(run())
    assert report.failures == 0
    assert report.control_messages == 0
    assert report.app_messages > 0


def test_piggyback_is_n_entries_per_message():
    for n in (2, 4, 8):
        report = measure_overhead(run(n=n))
        assert report.piggyback_entries_per_message == float(n)


def test_tokens_are_n_minus_1_per_failure():
    report = measure_overhead(run(crashes=CrashPlan().crash(20.0, 1, 2.0)))
    assert report.failures == 1
    assert report.control_messages_per_failure == report.n - 1


def test_history_within_onf_bound():
    report = measure_overhead(
        run(crashes=CrashPlan().crash(15.0, 1, 2.0).crash(35.0, 1, 2.0))
    )
    assert report.history_within_bound
    assert report.history_records_max <= report.history_bound


def test_wire_size_grows_only_logarithmically_with_failures():
    calm = measure_overhead(run(seed=1))
    stormy = measure_overhead(
        run(crashes=CrashPlan().crash(15.0, 1, 2.0).crash(35.0, 1, 2.0), seed=1)
    )
    if calm.app_messages and stormy.app_messages:
        # One extra failure bit at most in this regime.
        assert (
            stormy.piggyback_bits_per_message
            <= calm.piggyback_bits_per_message + calm.n
        )


def test_counts_storage_activity():
    report = measure_overhead(run(crashes=CrashPlan().crash(20.0, 1, 2.0)))
    assert report.checkpoints_taken > 0
    assert report.log_flushes > 0
    assert report.restarts == 1


class TestRecoveryLatencies:
    def test_one_latency_record_per_crash(self):
        from repro.analysis import recovery_latencies

        result = run(crashes=CrashPlan().crash(20.0, 1, 2.0).crash(50.0, 2, 3.0))
        latencies = recovery_latencies(result)
        assert [l.pid for l in latencies] == [1, 2]
        assert latencies[0].crash_time == 20.0
        assert latencies[1].crash_time == 50.0

    def test_restart_latency_equals_downtime_for_damani_garg(self):
        from repro.analysis import recovery_latencies

        result = run(crashes=CrashPlan().crash(20.0, 1, 2.0))
        (latency,) = recovery_latencies(result)
        assert latency.restart_latency == 2.0
        assert latency.settle_latency >= 2.0

    def test_no_crashes_no_latencies(self):
        from repro.analysis import recovery_latencies

        assert recovery_latencies(run()) == []

    def test_settle_covers_peer_rollbacks(self):
        from repro.analysis import recovery_latencies
        from repro.runtime.trace import EventKind

        for seed in range(8):
            result = run(seed=seed, crashes=CrashPlan().crash(20.0, 1, 2.0))
            rollbacks = result.trace.events(EventKind.ROLLBACK)
            if not rollbacks:
                continue
            (latency,) = recovery_latencies(result)
            assert latency.settle_time >= max(e.time for e in rollbacks)
            return
        raise AssertionError("no seed produced a rollback")


class TestPercentile:
    """Nearest-rank percentile: rank = max(1, ceil(q*n)), 1-indexed."""

    def test_empty_is_none(self):
        from repro.analysis.metrics import percentile

        assert percentile([], 0.5) is None

    def test_singleton_every_quantile(self):
        from repro.analysis.metrics import percentile

        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert percentile([42.0], q) == 42.0

    def test_odd_sample_median_is_middle_element(self):
        from repro.analysis.metrics import percentile

        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_even_sample_median_is_lower_of_the_two(self):
        """Nearest rank never interpolates: ceil(0.5*4) = rank 2."""
        from repro.analysis.metrics import percentile

        assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0

    def test_p99_of_100_samples_is_the_99th_not_the_100th(self):
        """The old buggy int(0.99*100) indexed element 100 (the max)."""
        from repro.analysis.metrics import percentile

        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0

    def test_p90_of_10_samples(self):
        from repro.analysis.metrics import percentile

        values = [float(i) for i in range(1, 11)]
        assert percentile(values, 0.9) == 9.0

    def test_low_quantile_clamps_to_minimum(self):
        from repro.analysis.metrics import percentile

        assert percentile([5.0, 6.0, 7.0], 0.0) == 5.0

    def test_input_order_is_irrelevant(self):
        from repro.analysis.metrics import percentile

        assert percentile([9.0, 1.0, 5.0], 0.99) == percentile(
            [1.0, 5.0, 9.0], 0.99
        )
