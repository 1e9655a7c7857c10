"""The stress-case generator: determinism, bounds, JSON round-trip.

The whole harness rests on cases being pure functions of ``(seed,
profile)`` that replay byte-identically from JSON -- otherwise a dumped
reproducer would not reproduce anything.
"""

import json
from dataclasses import replace

import pytest

from repro.harness.runner import run_experiment
from repro.sim.network import DeliveryOrder
from repro.stress import (
    DEFAULT_PROFILE,
    PROFILES,
    WORKLOADS,
    build_spec,
    case_from_dict,
    case_to_dict,
    generate_case,
)

SEEDS = range(40)


def test_same_seed_same_case():
    for seed in SEEDS:
        assert generate_case(seed) == generate_case(seed)


def test_different_seeds_differ():
    cases = {generate_case(seed) for seed in SEEDS}
    assert len(cases) == len(SEEDS)


def test_profiles_draw_independent_streams():
    # The stream is derived from the profile name, so the same seed
    # under two profiles must not yield correlated schedules.
    quick = generate_case(3, PROFILES["quick"])
    default = generate_case(3, PROFILES["default"])
    assert quick.crashes != default.crashes


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_cases_respect_profile_bounds(profile):
    prof = PROFILES[profile]
    for seed in SEEDS:
        case = generate_case(seed, prof)
        assert prof.min_n <= case.n <= prof.max_n
        assert prof.min_horizon <= case.horizon <= prof.max_horizon
        assert case.workload in prof.workloads
        assert case.order in ("fifo", "random")
        for time, pid, downtime in case.crashes:
            assert 0.0 < time < case.horizon
            assert 0 <= pid < case.n
            assert prof.downtime[0] <= downtime <= prof.downtime[1]
        per_pid: dict[int, int] = {}
        for _, pid, _ in case.crashes:
            per_pid[pid] = per_pid.get(pid, 0) + 1
        # Poisson arrivals are capped; the burst can add at most one more.
        assert all(
            count <= prof.max_failures_per_process + 1
            for count in per_pid.values()
        )
        assert len(case.partitions) <= prof.max_partitions
        for time, groups, heal in case.partitions:
            assert time < heal < case.horizon
            assert sorted(p for g in groups for p in g) == list(range(case.n))


def test_partition_windows_never_overlap():
    for seed in SEEDS:
        case = generate_case(seed, PROFILES["heavy"])
        for (_, _, heal), (start, _, _) in zip(
            case.partitions, case.partitions[1:]
        ):
            assert start > heal


def test_json_round_trip_is_identity():
    for seed in SEEDS:
        case = generate_case(seed)
        encoded = json.dumps(case_to_dict(case))
        assert case_from_dict(json.loads(encoded)) == case


def test_build_spec_reflects_case():
    case = generate_case(11)
    spec = build_spec(case)
    assert spec.n == case.n
    assert spec.seed == case.seed
    assert spec.horizon == case.horizon
    assert spec.duplicate_rate == case.duplicate_rate
    assert spec.order is (
        DeliveryOrder.FIFO if case.order == "fifo" else DeliveryOrder.RANDOM
    )
    assert spec.config.retransmit_on_token == case.retransmit_on_token
    assert spec.config.commit_outputs == case.commit_outputs
    assert (spec.crashes is not None) == bool(case.crashes)
    assert (spec.partitions is not None) == bool(case.partitions)


def test_replayed_case_reproduces_the_run_exactly():
    case = generate_case(5, PROFILES["quick"])
    twin = case_from_dict(json.loads(json.dumps(case_to_dict(case))))
    first = run_experiment(build_spec(case)).trace.signature()
    second = run_experiment(build_spec(twin)).trace.signature()
    assert first == second


def test_every_workload_factory_builds():
    for name, factory in WORKLOADS.items():
        assert factory(4) is not None, name


def test_gc_and_output_commit_are_drawn_independently():
    """GC without output commit is what the live service ships, so the
    generator must produce it; either flag turns on the gossip."""
    combos = set()
    for seed in range(200):
        case = generate_case(seed)
        combos.add((case.commit_outputs, case.enable_gc))
        gossip = case.commit_outputs or case.enable_gc
        assert (case.stability_interval is not None) == gossip
        if gossip:
            assert 3.0 <= case.stability_interval <= 6.0
    assert combos == {(False, False), (False, True), (True, False), (True, True)}


def test_legacy_reproducers_without_crash_points_load():
    case = generate_case(7)
    data = case_to_dict(case)
    data["crash_points"] = []   # what reproducers of crash-point days hold
    loaded = case_from_dict(json.loads(json.dumps(data)))
    assert loaded == case


def test_reproducers_arming_crash_points_are_refused():
    data = case_to_dict(generate_case(7))
    data["crash_points"] = [[0, "flush:log_flushed", 1.0]]
    with pytest.raises(ValueError, match="crash points"):
        case_from_dict(data)
