"""The FTVC against a reference written from the paper's definitions.

The clock's operations are single C-level passes over tuple-ordered
entries; the reference below is the slow, obvious version (Section 4:
lexicographic entries, component-wise maximum, ``c1 < c2`` iff every
entry ``<=`` and some entry ``<``; Section 6.9: the size estimates).
Seeded random clock pairs of every relation must agree on every
operation, including *which operand instance* ``merge`` hands back.
"""

import gc
import math
import random
import sys

import pytest

from repro.core.ftvc import FaultTolerantVectorClock as FTVC


# ----------------------------------------------------------------------
# The reference (plain (version, timestamp) pairs, no tuple comparison)
# ----------------------------------------------------------------------
def entry_le(x, y):
    return x[0] < y[0] or (x[0] == y[0] and x[1] <= y[1])


def ref_le(a, b):
    return all(entry_le(x, y) for x, y in zip(a, b))


def ref_lt(a, b):
    return ref_le(a, b) and any(x != y for x, y in zip(a, b))


def ref_merge(a, b):
    return [y if entry_le(x, y) else x for x, y in zip(a, b)]


def ref_diff(a, base):
    return [(i, *a[i]) for i in range(len(a)) if a[i] != base[i]]


def bits_for(count):
    """``ceil(log2(count))`` bits address ``count`` values (at least 1)."""
    return max(1, math.ceil(math.log2(count))) if count > 1 else 1


def varint_len(value):
    length = 1
    while value >= 128:
        value >>= 7
        length += 1
    return length


def ref_bits(a, timestamp_bits=32):
    return len(a) * (timestamp_bits + bits_for(max(v for v, _ in a) + 1))


def ref_delta_bits(a, base, timestamp_bits=32):
    changes = ref_diff(a, base)
    per_change = (
        bits_for(len(a))
        + bits_for(max((v for _, v, _ in changes), default=0) + 1)
        + timestamp_bits
    )
    return bits_for(len(a) + 1) + len(changes) * per_change


def diff_delta_bits(clock, base, timestamp_bits=32):
    """The delta size as it was computed before it became a C-level
    pass: from the triples ``diff()`` lists."""
    changes = clock.diff(base)
    n = len(clock)
    index_bits = max(1, (n - 1).bit_length())
    max_version = max((v for _, v, _ in changes), default=0)
    version_bits = max(1, max_version.bit_length())
    return max(1, n.bit_length()) + len(changes) * (
        index_bits + version_bits + timestamp_bits
    )


def ref_bytes(a):
    return 1 + varint_len(len(a)) + sum(
        varint_len(v) + varint_len(t) for v, t in a
    )


def ref_delta_bytes(a, base):
    changes = ref_diff(a, base)
    return 1 + varint_len(len(changes)) + sum(
        varint_len(i) + varint_len(v) + varint_len(t) for i, v, t in changes
    )


# ----------------------------------------------------------------------
# Seeded clock pairs
# ----------------------------------------------------------------------
RELATIONS = ("equal", "dominating", "concurrent", "random", "mismatched")


def random_pairs(rng, n):
    # Timestamps straddle the one- and two-byte varint boundary.
    return [(rng.randint(0, 3), rng.randint(0, 300)) for _ in range(n)]


def clock_pair(rng, relation):
    n = rng.randint(1, 32)
    a = random_pairs(rng, n)
    if relation == "equal":
        b = list(a)
    elif relation == "dominating":
        b = [
            (v, t) if rng.random() < 0.5
            else rng.choice([(v, t + rng.randint(1, 9)), (v + 1, 0)])
            for v, t in a
        ]
    elif relation == "concurrent":
        n = max(n, 2)
        a = random_pairs(rng, n)
        b = random_pairs(rng, n)
        a[0], b[0] = (1, 5), (1, 4)
        a[1], b[1] = (0, 9), (1, 0)
    elif relation == "random":
        b = random_pairs(rng, n)
    else:
        b = random_pairs(rng, n + rng.randint(1, 3))
    return a, b


CASES = [
    (relation, seed) for relation in RELATIONS for seed in range(40)
]


@pytest.mark.parametrize("relation,seed", CASES)
def test_operations_match_the_reference(relation, seed):
    rng = random.Random(f"{relation}-{seed}")
    pa, pb = clock_pair(rng, relation)
    a, b = FTVC.of(pa), FTVC.of(pb)
    assert list(a.pairs()) == pa

    assert (a == b) == (pa == pb)
    assert hash(a) == hash(FTVC.of(pa))
    if relation == "mismatched":
        for operation in (
            lambda: a <= b, lambda: a < b, lambda: a.concurrent_with(b),
            lambda: a.merge(b), lambda: a.diff(b), lambda: a.receive(b, 0),
            lambda: a.delta_wire_size_bits(b),
            lambda: a.delta_wire_size_bytes(b),
        ):
            with pytest.raises(ValueError, match="length mismatch"):
                operation()
        return

    for x, px, y, py in ((a, pa, b, pb), (b, pb, a, pa)):
        assert (x <= y) == ref_le(px, py)
        assert (x < y) == ref_lt(px, py)
        assert x.concurrent_with(y) == (
            not ref_le(px, py) and not ref_le(py, px)
        )
        merged = x.merge(y)
        expected = ref_merge(px, py)
        assert list(merged.pairs()) == expected
        # The identity-returning fast path: the receiver itself when it
        # dominates, else the message clock when that dominates.
        if expected == px:
            assert merged is x
        elif expected == py:
            assert merged is y
        else:
            assert merged is not x and merged is not y

        changes = x.diff(y)
        assert list(changes) == ref_diff(px, py)
        assert FTVC.from_delta(y, changes) == x
        assert x.delta_wire_size_bits(y) == ref_delta_bits(px, py)
        assert x.delta_wire_size_bits(y, 16) == ref_delta_bits(px, py, 16)
        assert x.delta_wire_size_bits(y) == diff_delta_bits(x, y)
        assert x.delta_wire_size_bytes(y) == ref_delta_bytes(px, py)

    assert a.wire_size_bits() == ref_bits(pa)
    assert a.wire_size_bits(16) == ref_bits(pa, 16)
    assert a.wire_size_bytes() == ref_bytes(pa)
    pid = rng.randrange(len(pa))
    version, timestamp = pa[pid]
    ticked = pa[:pid] + [(version, timestamp + 1)] + pa[pid + 1:]
    restarted = pa[:pid] + [(version + 1, 0)] + pa[pid + 1:]
    assert list(a.tick(pid).pairs()) == ticked
    assert list(a.restart(pid).pairs()) == restarted
    # Figure 2's receive rule is the merge followed by the own tick.
    assert a.receive(b, pid) == a.merge(b).tick(pid)
    assert b.receive(a, pid) == b.merge(a).tick(pid)
    assert list(a.pairs()) == pa            # immutable


def test_delta_size_of_equal_clocks_and_of_a_version_bump():
    clock = FTVC.of([(0, 3), (1, 7), (0, 0), (2, 40)])
    assert clock.delta_wire_size_bits(clock) == diff_delta_bits(clock, clock)
    assert clock.delta_wire_size_bits(clock) == 3      # the count field
    for pid in range(len(clock)):
        bumped = clock.restart(pid)
        for a, b in ((bumped, clock), (clock, bumped)):
            assert a.delta_wire_size_bits(b) == diff_delta_bits(a, b)
            assert a.delta_wire_size_bits(b, 8) == diff_delta_bits(a, b, 8)
    # The version bits follow the largest *changed* version, not the
    # largest in the clock.
    low = clock.tick(0)
    assert low.delta_wire_size_bits(clock) == 3 + (2 + 1 + 32)
    assert clock.restart(3).delta_wire_size_bits(clock) == 3 + (2 + 2 + 32)


# ----------------------------------------------------------------------
# Perf shape: the passes run in C, not in a Python frame per component
# ----------------------------------------------------------------------
def python_frames(operation):
    """Python-level function entries made while running ``operation``
    (C calls are reported as ``c_call`` and not counted)."""
    entered = 0

    def profiler(frame, event, arg):
        nonlocal entered
        if event == "call":
            entered += 1

    # Start from an empty collector: a collection landing inside
    # ``operation`` would otherwise finalize earlier tests' garbage (a
    # suspended generator resumes to close) and count those frames too.
    gc.collect()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        operation()
    finally:
        sys.setprofile(previous)
    return entered - 1          # the lambda itself


@pytest.mark.parametrize("relation", ["dominating", "concurrent"])
def test_order_merge_and_diff_enter_a_constant_number_of_frames(relation):
    frames = {}
    for n in (8, 64):
        low = FTVC.of([(0, i) for i in range(n)])
        high = FTVC.of([(0, i + 1 + (i % 2)) for i in range(n)])
        if relation == "concurrent":
            high = high.restart(0)
            low = low.restart(1)
        assert (low < high) == (relation == "dominating")
        frames[n] = [
            python_frames(lambda: low < high),
            python_frames(lambda: high <= low),
            python_frames(lambda: low.merge(high)),
            python_frames(lambda: high.diff(low)),
        ]
    assert frames[64] == frames[8]
    assert max(frames[64]) <= 3, frames
