"""The Theorem-1 oracle against the reference it replaced.

``check_theorem1`` decides every ordered pair of useful states with two
bitset computations (reach masks on the ground truth, per-component rank
masks over the clocks).  The reference below is what it replaced, kept as
written: one graph search per tracked state and one ``entries_precede``
per ordered pair -- the paper's Theorem 1 read off directly.  The two must
return the same :class:`TheoremReport` field by field, on clean runs, on
doctored ones where the answer is not "ok", and on graphs no trace would
produce; ``GroundTruth``'s own queries are held to the same searches.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.analysis.causality import GroundTruth, build_ground_truth
from repro.analysis.theorem import TheoremReport, check_theorem1
from repro.apps import RandomRoutingApp
from repro.core.ftvc import FaultTolerantVectorClock as FTVC
from repro.core.ftvc import entries_precede
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentSpec, run_experiment
from repro.protocols.base import ProtocolConfig
from repro.sim.failures import CrashPlan
from repro.stress import PROFILES, build_spec, generate_case
from tests.properties.test_clock_reference import python_frames


# ----------------------------------------------------------------------
# The reference: graph search and the S^2 loop, as they stood in src/
# ----------------------------------------------------------------------
def ref_successors(gt):
    adj = {}
    for src, dst in gt.edges:
        adj.setdefault(src, []).append(dst)
    return adj


def _descendants(adj, start):
    seen = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def ref_reachable_from(gt, sources):
    adj = ref_successors(gt)
    return set().union(*(_descendants(adj, uid) for uid in sources))


def ref_orphans(gt):
    return ref_reachable_from(gt, gt.lost) - gt.lost


def ref_check_theorem1(result, *, max_states=1500, ground_truth=None):
    gt = ground_truth or build_ground_truth(result.trace, result.network.n)
    orphans = ref_orphans(gt)
    useful = gt.states - gt.lost - orphans - gt.superseded

    clocks = {}
    for protocol in result.protocols:
        clock_map = getattr(protocol, "clock_by_uid", None)
        if clock_map is None:
            raise TypeError(
                f"{type(protocol).__name__} does not expose clock_by_uid; "
                "Theorem 1 can only be checked for the Damani-Garg protocol"
            )
        clocks.update(clock_map)

    tracked = sorted(u for u in useful if u in clocks)
    if len(tracked) > max_states:
        tracked = tracked[:max_states]

    non_useful = sorted(
        (u for u in (gt.lost | orphans | gt.superseded) if u in clocks),
        key=str,
    )[:100]

    adj = ref_successors(gt)
    tracked_entries = [(u, clocks[u].entries) for u in tracked]
    control_entries = [(u, clocks[u].entries) for u in non_useful]
    if len({len(e) for _, e in tracked_entries + control_entries}) > 1:
        raise ValueError("FTVC length mismatch")
    control_reach = {}
    violations = []
    pairs = 0
    for s, mine in tracked_entries:
        reach = _descendants(adj, s)
        if len(control_reach) < 100:
            control_reach[s] = reach
        for u, theirs in tracked_entries:
            if u == s:
                continue
            pairs += 1
            hb = u in reach
            clk = entries_precede(mine, theirs)
            if hb != clk:
                violations.append(
                    f"{s} -> {u}: happen-before={hb} but clock<={clk} "
                    f"({clocks[s]!r} vs {clocks[u]!r})"
                )
                if len(violations) >= 10:
                    break
        if len(violations) >= 10:
            break

    counterexamples = 0
    for s, mine in tracked_entries[:100]:
        reach = control_reach.get(s)
        if reach is None:
            reach = _descendants(adj, s)
        for u, theirs in control_entries:
            if (u in reach) != entries_precede(mine, theirs):
                counterexamples += 1

    return TheoremReport(
        ok=not violations,
        useful_states=len(tracked),
        pairs_checked=pairs,
        violations=violations,
        non_useful_counterexamples=counterexamples,
    )


def assert_same_report(result, *, max_states=1500, ground_truth=None):
    """Both checkers on the same input; returns the (shared) report."""
    expected = ref_check_theorem1(
        result, max_states=max_states, ground_truth=ground_truth
    )
    got = check_theorem1(
        result, max_states=max_states, ground_truth=ground_truth
    )
    assert replace(got, untracked_useful=0) == expected
    return got


def assert_same_queries(gt, probes):
    """``GroundTruth``'s queries against the searches they replaced."""
    adj = ref_successors(gt)
    assert gt.orphans() == ref_orphans(gt)
    for uid in probes:
        below = _descendants(adj, uid)
        assert gt.reachable_from({uid}) == below
        assert set(gt.members(gt.reach[uid])) == below
        for other in probes:
            assert gt.happens_before(uid, other) == (other in below)
    assert gt.reachable_from(set(probes)) == ref_reachable_from(gt, probes)
    assert gt.reachable_from(set()) == set()
    assert not gt.happens_before(("no", "such"), probes[0])
    assert not gt.happens_before(probes[0], ("no", "such"))


# ----------------------------------------------------------------------
# Seeded stress schedules, clean and capped
# ----------------------------------------------------------------------
def stress_run(seed, profile="default"):
    return run_experiment(build_spec(generate_case(seed, PROFILES[profile])))


@pytest.mark.parametrize(
    "profile, seeds", [("default", range(200)), ("heavy", range(30))]
)
def test_equal_reports_on_seeded_schedules(profile, seeds):
    useful_seen = counterexamples = 0
    for seed in seeds:
        result = stress_run(seed, profile)
        gt = build_ground_truth(result.trace, result.network.n)
        for cap in (10, 50, 1500):
            report = assert_same_report(result, max_states=cap)
            assert report.ok, (seed, report.violations)
        assert report.useful_states == len(gt.useful())     # uncapped
        useful_seen += report.useful_states
        counterexamples += report.non_useful_counterexamples
        assert_same_queries(gt, sorted(gt.states)[::37])
    assert useful_seen > 30 * len(seeds)
    assert counterexamples > 0          # the negative control is live


# ----------------------------------------------------------------------
# Doctored inputs: the answer is not "ok", and is the same answer
# ----------------------------------------------------------------------
def routing_run(seed=0, hops=40, crashes=None):
    return run_experiment(ExperimentSpec(
        n=4,
        app=RandomRoutingApp(hops=hops, seeds=(0, 1), initial_items=2),
        protocol=DamaniGargProcess,
        crashes=crashes,
        seed=seed,
        horizon=400.0,
        config=ProtocolConfig(checkpoint_interval=8.0, flush_interval=2.5),
    ))


def set_clock(result, uid, clock):
    result.protocols[uid[0]].clock_by_uid[uid] = clock


def doctored(kind, seed):
    """A crash run with one mid-run useful state's clock replaced."""
    result = routing_run(seed, crashes=CrashPlan().crash(20.0, 1, 2.0))
    gt = build_ground_truth(result.trace, result.network.n)
    clocks = result.protocols[0].clock_by_uid
    victim = sorted(u for u in gt.useful() if u[0] == 0 and u in clocks)[8]
    n = len(clocks[victim].entries)
    if kind == "concurrent":      # ahead of everyone in one entry, behind
        entries = [(0, 0)] * n    # in the others: ordered with no state
        entries[0] = (9, 0)
        set_clock(result, victim, FTVC.of(entries))
    elif kind == "dominated":     # below every clock of the run
        set_clock(result, victim, FTVC.of([(0, 0)] * n))
    else:                         # "equal": a causal successor's clock
        later = sorted(gt.reachable_from({victim}) & clocks.keys())[0]
        set_clock(result, victim, clocks[later])
    return result


@pytest.mark.parametrize("kind", ["concurrent", "dominated", "equal"])
@pytest.mark.parametrize("seed", range(4))
def test_equal_reports_on_a_doctored_clock(kind, seed):
    result = doctored(kind, seed)
    for cap in (10, 50, 1500):
        assert_same_report(result, max_states=cap)
    report = check_theorem1(result)
    assert not report.ok
    assert len(report.violations) <= 10


def test_reporting_stops_at_the_tenth_violation():
    result = doctored("dominated", 0)
    report = assert_same_report(result)
    states = report.useful_states
    assert len(report.violations) == 10
    assert 0 < report.pairs_checked < states * (states - 1)
    # the stop falls inside a row, after rows that were checked in full
    assert report.pairs_checked % (states - 1)
    assert report.pairs_checked > states - 1


def test_equal_reports_with_message_edges_removed():
    result = routing_run()
    gt = build_ground_truth(result.trace, result.network.n)
    broken = 0
    for edge in sorted(gt.message_edges)[::5]:
        cut = replace(gt, message_edges=gt.message_edges - {edge})
        report = assert_same_report(result, ground_truth=cut)
        broken += not report.ok
    # the clock still orders the two states the missing edge connected
    assert broken > 0


def test_untracked_useful_states_are_counted_not_hidden():
    result = routing_run()
    clean = assert_same_report(result)
    gt = build_ground_truth(result.trace, result.network.n)
    victim = sorted(gt.useful())[5]
    del result.protocols[victim[0]].clock_by_uid[victim]
    report = assert_same_report(result)
    assert clean.untracked_useful == 0 and report.untracked_useful == 1
    assert report.useful_states == clean.useful_states - 1


def test_a_wrong_length_clock_is_refused_by_both():
    result = routing_run()
    victim = sorted(result.protocols[2].clock_by_uid)[3]
    set_clock(result, victim, FTVC.of([(0, 1)] * 3))
    for check in (ref_check_theorem1, check_theorem1):
        with pytest.raises(ValueError, match="FTVC length mismatch"):
            check(result)


# ----------------------------------------------------------------------
# Hand-built graphs: shapes no well-formed trace produces
# ----------------------------------------------------------------------
def hand_built(edges, clocks, *, lost=()):
    """A ground truth and a result-shaped holder for its clocks."""
    states = {uid for edge in edges for uid in edge} | set(clocks)
    gt = GroundTruth(
        n=1, states=states, local_edges=set(edges), lost=set(lost)
    )
    holder = SimpleNamespace(protocols=[SimpleNamespace(clock_by_uid=clocks)])
    return gt, holder


def test_long_chain_needs_no_recursion():
    length = 5000
    chain = [(0, 0, serial) for serial in range(length)]
    clocks = {uid: FTVC.of([(0, uid[2])]) for uid in chain}
    gt, holder = hand_built(list(zip(chain, chain[1:])), clocks)
    assert gt.reachable_from({chain[0]}) == set(chain[1:])
    assert gt.happens_before(chain[0], chain[-1])
    assert not gt.happens_before(chain[-1], chain[0])
    assert_same_queries(gt, chain[::999])
    report = assert_same_report(holder, max_states=60, ground_truth=gt)
    assert report.ok and report.pairs_checked == 60 * 59
    # creation order unknown (hand-built): the passes still settle, and
    # with it the same masks come out
    ordered = replace(gt, order=chain)
    assert ordered.reach == gt.reach


def test_diamond():
    a, b, c, d = [(pid, 0, serial) for pid, serial in
                  [(0, 0), (0, 1), (1, 1), (1, 2)]]
    clocks = {
        a: FTVC.of([(0, 0), (0, 0)]),
        b: FTVC.of([(0, 1), (0, 0)]),
        c: FTVC.of([(0, 0), (0, 1)]),
        d: FTVC.of([(0, 1), (0, 2)]),
    }
    gt, holder = hand_built([(a, b), (a, c), (b, d), (c, d)], clocks)
    assert_same_queries(gt, [a, b, c, d])
    assert gt.reachable_from({a}) == {b, c, d}
    assert not gt.happens_before(b, c) and not gt.happens_before(c, b)
    report = assert_same_report(holder, ground_truth=gt)
    assert report.ok and report.pairs_checked == 12
    # one branch of the diamond lost: the join is its orphan
    gt, holder = hand_built(
        [(a, b), (a, c), (b, d), (c, d)], clocks, lost=[c]
    )
    assert gt.orphans() == ref_orphans(gt) == {d}
    report = assert_same_report(holder, ground_truth=gt)
    assert report.useful_states == 2


def test_cycle_terminates_with_the_search_reach_sets():
    ring = [(0, 0, serial) for serial in range(6)]
    tail = (1, 0, 0)
    edges = list(zip(ring, ring[1:] + ring[:1])) + [(ring[2], tail)]
    clocks = {uid: FTVC.of([(0, uid[2]), (0, uid[0])]) for uid in ring}
    clocks[tail] = FTVC.of([(0, 9), (0, 9)])
    gt, holder = hand_built(edges, clocks)
    assert_same_queries(gt, ring + [tail])
    assert gt.happens_before(ring[0], ring[0])      # re-reached
    assert not gt.happens_before(tail, tail)
    report = assert_same_report(holder, ground_truth=gt)
    assert not report.ok
    # the ring in creation order, and in the order that defeats one pass
    for order in (ring + [tail], [tail] + ring[::-1]):
        assert replace(gt, order=order).reach == gt.reach


def test_empty_tracked_set():
    gt, holder = hand_built([], {})
    report = assert_same_report(holder, ground_truth=gt)
    assert report == TheoremReport(True, 0, 0, [], 0)
    only = (0, 0, 0)
    gt, holder = hand_built([], {only: FTVC.of([(0, 0)])}, lost=[only])
    assert assert_same_report(holder, ground_truth=gt).useful_states == 0
    assert assert_same_report(
        routing_run(), max_states=0
    ).pairs_checked == 0


# ----------------------------------------------------------------------
# Cost shape: the quadratic cannot come back unnoticed
# ----------------------------------------------------------------------
def test_python_frames_grow_with_states_not_pairs():
    frames = {}
    for hops in (25, 100):
        result = routing_run(3, hops, CrashPlan().crash(8.0, 1, 2.0))
        states = check_theorem1(result).useful_states
        frames[hops] = (
            states, python_frames(lambda: check_theorem1(result))
        )
    (small, few), (large, many) = frames[25], frames[100]
    assert 90 <= small <= 130 and 3.5 * small <= large, frames
    # four times the states: the S^2 loop entered ~16x the frames
    assert many < 6 * few, frames
