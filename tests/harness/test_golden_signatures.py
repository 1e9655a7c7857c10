"""Golden trace signatures: the engine refactor safety net.

Every (protocol, conformance schedule) pair has a deterministic ground
truth trace, pinned here twice, each time as a 16-byte blake2b digest:

- ``GOLDEN`` holds the *historical* digests, captured before the
  protocols were ported onto :class:`RuntimeEnv`.  They are digests of
  the text encoding the trace used until its digest became binary, and
  :func:`reference_signature` below is that encoder, kept verbatim.  A
  mismatch here means an engine or protocol change altered the
  *semantics* of a run -- event order, timing, or content -- not just
  its implementation.
- ``SIGNATURE`` holds what :meth:`SimTrace.signature` returns for the
  same runs (the value-based pickle encoding).  A mismatch here with
  ``GOLDEN`` still matching means the encoder changed, not the run.

If a change is *supposed* to alter execution (a protocol fix, a new
event), re-pin both tables by printing ``reference_signature(trace)``
and ``result.trace.signature()`` for the failing pairs, in the same
commit, with the reason in the commit message.
"""

import hashlib

import pytest

from repro.harness.conformance import (
    CONFORMANCE_SCHEDULES,
    PROTOCOL_REGISTRY,
    build_conformance_spec,
)
from repro.harness.runner import run_experiment


def reference_signature(trace) -> str:
    """The trace digest as ``SimTrace.signature`` computed it until the
    encoding became binary: one ``repr`` line per event."""
    h = hashlib.blake2b(digest_size=16)
    for seq, time, kind, pid, fields in trace:
        h.update(
            f"{seq}|{time!r}|{kind._value_}|{pid}|"
            f"{sorted(fields.items())!r}\n".encode("utf-8")
        )
    return h.hexdigest()


GOLDEN = {
    "causal/double-sequential-crash": "0700c6770080bc95ee5ca4519f60c312",
    "causal/early-crash-mid-stage": "975aaaa82452ff5f87be87008a48611d",
    "causal/late-crash-final-stage": "fe368d660646e97c022cd8ea7d6cbf6d",
    "coordinated/double-sequential-crash":
        "de08c384ef99736b30d234e668a4fd1c",
    "coordinated/early-crash-mid-stage":
        "f35483435aa4476bfa5545fc5fe6ec4d",
    "coordinated/late-crash-final-stage":
        "1d2dcd77cfe516217d401d101bb2da81",
    "damani-garg/double-sequential-crash":
        "830394fd81c78ad715415ec86263083d",
    "damani-garg/early-crash-mid-stage":
        "2a257e166077d9fb7a98db9a46fc4c96",
    "damani-garg/late-crash-final-stage":
        "d3a467238fb4eb43fa9c2e7204fbabdc",
    "pessimistic/double-sequential-crash":
        "5654e423adc2d7b96106af20beaa6103",
    "pessimistic/early-crash-mid-stage":
        "0fe0265659db1d9819b18f9e903dce70",
    "pessimistic/late-crash-final-stage":
        "384308b54f9dea12f806c2ef3c1afc30",
    "peterson-kearns/double-sequential-crash":
        "04254a8bb9ace5427745ecebe10ae457",
    "peterson-kearns/early-crash-mid-stage":
        "e0b972345ec5d2e9d911c573ccf0937f",
    "peterson-kearns/late-crash-final-stage":
        "bbae3a4f281807a92f5b4260f128b1ca",
    "sender-based/double-sequential-crash":
        "e58aa6ff71a22bdd17e775e1d96ee4e0",
    "sender-based/early-crash-mid-stage":
        "184156ee5712ff03f821872cfa3aee65",
    "sender-based/late-crash-final-stage":
        "d2b095cbe65f07cc493462dd6b999312",
    "sistla-welch/double-sequential-crash":
        "98212086a004da1aecbce613e4d7db5d",
    "sistla-welch/early-crash-mid-stage":
        "db9ebdb82856fc5a6455ccec97b400b2",
    "sistla-welch/late-crash-final-stage":
        "a1e5734667187767352a264785078080",
    "smith-johnson-tygar/double-sequential-crash":
        "830394fd81c78ad715415ec86263083d",
    "smith-johnson-tygar/early-crash-mid-stage":
        "2a257e166077d9fb7a98db9a46fc4c96",
    "smith-johnson-tygar/late-crash-final-stage":
        "d3a467238fb4eb43fa9c2e7204fbabdc",
    "strom-yemini/double-sequential-crash":
        "a633e5758a6ad4f2dff2a967c107d68a",
    "strom-yemini/early-crash-mid-stage":
        "2a95b04554e4d1db81b135c9392c67c6",
    "strom-yemini/late-crash-final-stage":
        "78a2fe67c7972e398b80530e7e2da605",
}

SIGNATURE = {
    "causal/double-sequential-crash": "78ed57f764feaf9240fbca0e87ff7bd0",
    "causal/early-crash-mid-stage": "2d6000f44c06319147d238b8d2a76b0b",
    "causal/late-crash-final-stage": "d02706372d416778b68d5da03e87a5b6",
    "coordinated/double-sequential-crash":
        "29ab3937c8e64f0779d9cab3ec2a8454",
    "coordinated/early-crash-mid-stage":
        "096b475835c1b9d0a4c2277f5897ba12",
    "coordinated/late-crash-final-stage":
        "09891c2b6a940a213ad5857393b699f0",
    "damani-garg/double-sequential-crash":
        "ca4a8aa936062762f7d7db949243ed96",
    "damani-garg/early-crash-mid-stage":
        "5ae8c8a9d2d1303948cc01d35619726a",
    "damani-garg/late-crash-final-stage":
        "1fe44583a4f851ae8421539559abedf0",
    "pessimistic/double-sequential-crash":
        "cd23265ecc1d339bb999415842757957",
    "pessimistic/early-crash-mid-stage":
        "8469bbdd472d199da7f68e4ce8943c49",
    "pessimistic/late-crash-final-stage":
        "6fd55b92caeeeece75f20e559153cd68",
    "peterson-kearns/double-sequential-crash":
        "adac4aac515ff761591ca3cc4a9e8521",
    "peterson-kearns/early-crash-mid-stage":
        "a263a772cb3e5c52462824ee49cbb9e3",
    "peterson-kearns/late-crash-final-stage":
        "73f680d3caea41d2b93a50f02a9f8d0b",
    "sender-based/double-sequential-crash":
        "cb4644deaa12e2ac814cea4d6488eed8",
    "sender-based/early-crash-mid-stage":
        "acedc1d3567e12d7aef18e3729bdffc6",
    "sender-based/late-crash-final-stage":
        "f7f7df5ee41c4403e9fcd2a0a747d511",
    "sistla-welch/double-sequential-crash":
        "d34a1dc31fdd2d6cdb72abc09d7dcac9",
    "sistla-welch/early-crash-mid-stage":
        "c412e9f04540d7beebfcd02848ab8bc0",
    "sistla-welch/late-crash-final-stage":
        "64f29f42715341f466f48845b5ff24d1",
    "smith-johnson-tygar/double-sequential-crash":
        "ca4a8aa936062762f7d7db949243ed96",
    "smith-johnson-tygar/early-crash-mid-stage":
        "5ae8c8a9d2d1303948cc01d35619726a",
    "smith-johnson-tygar/late-crash-final-stage":
        "1fe44583a4f851ae8421539559abedf0",
    "strom-yemini/double-sequential-crash":
        "ca0b67633c2e968c28a331a789c7f58b",
    "strom-yemini/early-crash-mid-stage":
        "ab699ba23b10d15818d2f1c6d093d40a",
    "strom-yemini/late-crash-final-stage":
        "c5d5bd75f7936f9420d3847c9f5ec45d",
}


def test_every_registry_pair_is_pinned():
    expected = {
        f"{name}/{schedule.name}"
        for name in PROTOCOL_REGISTRY
        for schedule in CONFORMANCE_SCHEDULES
    }
    assert expected == set(GOLDEN) == set(SIGNATURE), (
        "registry/schedule changed: pin signatures for the new pairs"
    )


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_trace_signature_matches_golden(key):
    protocol_name, _, schedule_name = key.partition("/")
    schedule = next(
        s for s in CONFORMANCE_SCHEDULES if s.name == schedule_name
    )
    spec = build_conformance_spec(
        PROTOCOL_REGISTRY[protocol_name], schedule
    )
    trace = run_experiment(spec).trace
    assert reference_signature(trace) == GOLDEN[key], (
        f"{key}: deterministic execution changed"
    )
    assert trace.signature() == SIGNATURE[key], (
        f"{key}: the run is unchanged but SimTrace.signature()'s encoding is not"
    )


# Counters the trace does not carry but the benchmark reads
# (``core.piggyback_delta_bytes_per_msg``, ``storage.intents_per_delivery``,
# ``sim.kernel.events_per_delivery``), plus the two storage tallies a
# cheaper no-op flush could silently skip.  Captured at the commit before
# the hot path was slimmed: a fast path must do the same accounting.
# ``intents_begun`` is 0: protocol transitions are single records and
# carry no write-ahead intent (only operator rollback does).
GOLDEN_COUNTERS = {
    # schedule: (piggyback_delta_bits, intents_begun, events_fired,
    #            sync_writes, log flush_count)
    "early-crash-mid-stage": (1929, 0, 309, 280, 276),
    "late-crash-final-stage": (1929, 0, 309, 280, 276),
    "double-sequential-crash": (1929, 0, 314, 283, 275),
}


@pytest.mark.parametrize("schedule", CONFORMANCE_SCHEDULES, ids=lambda s: s.name)
def test_damani_garg_counters_match_golden(schedule):
    result = run_experiment(
        build_conformance_spec(PROTOCOL_REGISTRY["damani-garg"], schedule)
    )
    storages = [p.storage for p in result.protocols]
    assert (
        result.total("piggyback_delta_bits"),
        sum(s.intents_begun for s in storages),
        result.sim.events_fired,
        sum(s.sync_writes for s in storages),
        sum(s.log.flush_count for s in storages),
    ) == GOLDEN_COUNTERS[schedule.name]


# The hand-scripted runs, assembled through ``ExperimentResult.build`` with
# their flushes scheduled between build and run: ``signature()`` of each,
# captured while each still built its own simulator, network and hosts.
SCRIPTED = {
    "figure1": "3f82c4ef6392d8b0e8818e01051bad16",
    "figure5": "94cf0b927fd51e2431cbd0557bf67132",
    "cascade/damani-garg": "31de5dc9ddf2cd60cfe7c556e03678e9",
    "cascade/strom-yemini": "45f896605a2f675a919faae46a82ae2c",
    "scenario-builder-docstring": "65a34a059fe574fa818d20c3fa54c3e7",
}


def _scripted_run(key):
    from repro.core.recovery import DamaniGargProcess
    from repro.harness.scenarios import ScriptedApp, cascade, figure1, figure5
    from repro.protocols.strom_yemini import StromYeminiProcess
    from repro.testing import ScenarioBuilder

    if key == "figure1":
        return figure1()
    if key == "figure5":
        return figure5()
    if key == "cascade/damani-garg":
        return cascade(DamaniGargProcess)
    if key == "cascade/strom-yemini":
        return cascade(StromYeminiProcess)
    # The example in repro.testing's module docstring, verbatim.
    return (
        ScenarioBuilder(n=2)
        .app(ScriptedApp(bootstrap_sends={0: [(1, "m")]}))
        .latency(0, 1, 1.0)
        .crash(at=5.0, pid=1, downtime=1.0)
        .flush(pid=1, at=2.0)
        .run()
    )


@pytest.mark.parametrize("key", sorted(SCRIPTED))
def test_scripted_run_signature_matches_golden(key):
    assert _scripted_run(key).trace.signature() == SCRIPTED[key], (
        f"{key}: the scripted run changed"
    )


# Damani-Garg's recovery interleavings the conformance schedules never
# reach -- a restart after a rollback, output commit and garbage
# collection driven by stability gossip, each drawn on its own -- pinned
# as one blake2b digest over ``profile|seed|trace signature|headline``
# lines for seeds 0-49 of the quick, default and heavy stress profiles
# (150 schedules).
STRESS_PROFILES = ("quick", "default", "heavy")
STRESS_SEEDS = 50
STRESS_DIGEST = "d8be4320b263650c11c6c788d91166ee"


def test_stress_schedules_match_golden():
    from repro.stress.generate import generate_case
    from repro.stress.profiles import PROFILES
    from repro.stress.sweep import run_case

    digest = hashlib.blake2b(digest_size=16)
    for profile in STRESS_PROFILES:
        for seed in range(STRESS_SEEDS):
            case = run_case(generate_case(seed, PROFILES[profile]))
            digest.update(
                f"{profile}|{seed}|{case.trace_signature}|"
                f"{case.headline()}\n".encode()
            )
    assert digest.hexdigest() == STRESS_DIGEST, (
        "a stress schedule's run or verdict changed"
    )
