"""Open-loop load generator: schedule honesty, engine-agnosticism.

The source's contract is the deterministic injection schedule
``intended_time(j) = start_at + j/rate``: latency is graded against it,
so these tests pin (a) the schedule itself and (b) that the source runs
unmodified on the simulator (it only touches the ``RuntimeEnv`` surface).
The live-engine smoke runs one real cluster at a modest rate.
"""

import pytest

from repro.analysis import check_recovery
from repro.apps.applications import mix64
from repro.core.recovery import DamaniGargProcess
from repro.live.load import LoadPipelineApp, OpenLoopSource, load_spec
from repro.live.supervisor import run_cluster
from repro.live.verify import check_live_run, pipeline_reference
from repro.protocols.base import ProtocolConfig
from repro.runtime.trace import EventKind, SimTrace
from repro.sim import ProcessHost
from repro.sim.kernel import Simulator
from repro.sim.network import DeliveryOrder, Network, ScriptedLatency
from repro.sim.rng import RandomStreams


def test_intended_schedule_is_deterministic():
    source = OpenLoopSource.__new__(OpenLoopSource)
    source.rate = 50.0
    source.start_at = 0.25
    assert source.intended_time(0) == 0.25
    assert source.intended_time(50) == pytest.approx(1.25)
    assert source.intended_time(100) == pytest.approx(2.25)


def test_source_rejects_bad_parameters():
    with pytest.raises(ValueError):
        OpenLoopSource(object(), rate=0.0, jobs=1)
    with pytest.raises(ValueError):
        OpenLoopSource(object(), rate=10.0, jobs=-1)


def test_load_app_has_no_bootstrap_burst():
    class Ctx:
        def __init__(self):
            self.sent = []

        def send(self, dst, payload):
            self.sent.append((dst, payload))

    ctx = Ctx()
    LoadPipelineApp(jobs=8).bootstrap(0, 4, ctx)
    assert ctx.sent == []


def _run_sim_load(n=4, rate=20.0, jobs=10, start_at=1.0, horizon=400.0):
    """The source on the deterministic simulator: same protocol objects,
    same ``RuntimeEnv`` surface, zero real time."""
    sim = Simulator()
    trace = SimTrace()
    network = Network(
        sim,
        n,
        streams=RandomStreams(0),
        latency=ScriptedLatency(default=1.0),
        order=DeliveryOrder.RANDOM,
        trace=trace,
    )
    hosts = [ProcessHost(pid, sim, network, trace) for pid in range(n)]
    protocols = [
        DamaniGargProcess(
            host,
            LoadPipelineApp(jobs=jobs),
            ProtocolConfig(checkpoint_interval=1e9, flush_interval=1e9),
        )
        for host in hosts
    ]
    for host in hosts:
        host.start()
    source = OpenLoopSource(
        protocols[0], rate=rate, jobs=jobs, start_at=start_at
    )
    source.start()
    sim.run(until=horizon)
    for protocol in protocols:
        protocol.halt_periodic_tasks()
    sim.drain()
    return source, trace, protocols, sim, network, hosts


def test_source_runs_on_the_simulator():
    jobs, rate, start_at = 10, 20.0, 1.0
    source, trace, protocols, *_ = _run_sim_load(
        jobs=jobs, rate=rate, start_at=start_at
    )
    assert source.injected == jobs
    assert source.done

    expected = pipeline_reference(4, jobs)
    outputs = {
        e.get("value")[1]: e.get("value")[2]
        for e in trace.events(EventKind.OUTPUT)
    }
    assert outputs == expected

    # Latency against the *intended* schedule is never negative: no job
    # completes before the instant it was supposed to enter the system.
    for event in trace.events(EventKind.OUTPUT):
        assert event.time >= source.intended_time(event.get("value")[1])


def test_sim_injections_follow_the_open_loop_schedule():
    jobs, rate, start_at = 10, 20.0, 1.0
    source, trace, *_ = _run_sim_load(jobs=jobs, rate=rate, start_at=start_at)
    # pid 0 sends nothing but its injections here (no checkpoints, no
    # crashes, no tokens), so its SEND events are the injection schedule.
    sends = trace.events(EventKind.SEND, pid=0)
    assert len(sends) == jobs
    for j, event in enumerate(sends):
        intended = start_at + j / rate
        assert event.time == pytest.approx(intended), (
            f"job {j} injected at t={event.time}, schedule says {intended}"
        )


def test_sim_load_run_passes_the_recovery_oracle():
    source, trace, protocols, sim, network, hosts = _run_sim_load()

    class Run:
        pass

    run = Run()
    run.trace = trace
    run.protocols = protocols
    run.sim = sim
    run.network = network
    run.hosts = hosts
    assert check_recovery(run).ok


def test_injected_payloads_match_the_bootstrap_wire_format():
    """The oracle's closed-form reference only grades load runs because
    an injected job is identical to a bootstrap job."""

    class FakeEnv:
        now = 10.0   # every intended time has passed: one burst

        def schedule_after(self, delay, callback, **kwargs):
            callback()

    class FakeProtocol:
        env = FakeEnv()

        def __init__(self):
            self.sent = []

        def inject_app_send(self, dst, payload):
            self.sent.append((dst, payload))

    protocol = FakeProtocol()
    source = OpenLoopSource(protocol, rate=100.0, jobs=3, start_at=0.0)
    source.start()
    assert source.done
    for j, (dst, payload) in enumerate(protocol.sent):
        assert dst == 1
        assert payload.job_id == j
        assert payload.stage == 1
        assert payload.value == mix64(j, 0)


def test_load_spec_budgets_drain_for_the_backlog():
    quick = load_spec(n=4, rate=10.0, duration=1.0)
    saturated = load_spec(n=4, rate=2000.0, duration=1.0)
    assert quick.jobs == 10
    assert saturated.jobs == 2000
    assert saturated.run_seconds > quick.run_seconds
    assert saturated.app["kind"] == "load"
    # Pruning must be on: open-loop runs would otherwise grow the
    # storage image with every delivered message.
    assert saturated.gossip_interval is not None
    assert saturated.enable_gc
    assert saturated.compact_history


# ---------------------------------------------------------------------------
# Live-engine smoke
# ---------------------------------------------------------------------------
def test_live_load_smoke(tmp_path):
    """One real cluster at a modest offered rate: oracle PASS, every job
    injected and committed, honest non-negative latencies."""
    rate, start_at = 40.0, 0.25
    spec = load_spec(n=3, rate=rate, duration=1.0, start_at=start_at)
    result = run_cluster(spec, str(tmp_path))
    verdict = check_live_run(result.trace, n=spec.n, jobs=spec.jobs)
    assert verdict.ok, verdict.summary()
    assert result.done[0]["load"]["injected"] == spec.jobs == 40
    assert verdict.outputs_committed == 40
    for event in result.trace.events(EventKind.OUTPUT):
        job = event.get("value")[1]
        assert event.time >= start_at + job / rate
