"""The history mechanism against a straightforward reference.

``History`` answers each of its questions in one tight walk over the
clock's entries; ``ReferenceHistory`` below is Figure 3 and Lemmas 3-4
(plus the Section 6.9 compaction rule) written the obvious way over one
flat ``(process, version) -> (kind, timestamp)`` table.  Seeded random
token / message / ``compact()`` sequences must leave both with the same
record table and the same answers to every test.
"""

import random

import pytest

from repro.core.ftvc import FaultTolerantVectorClock as FTVC
from repro.core.history import History
from repro.core.tokens import RecoveryToken


class ReferenceHistory:
    def __init__(self, pid, n):
        self.n = n
        self.floor = [0] * n
        self.table = {(j, 0): ("mes", int(j == pid)) for j in range(n)}

    def kind(self, j, version):
        return self.table.get((j, version), (None, None))[0]

    def observe_message_clock(self, pairs):
        for j, (version, timestamp) in enumerate(pairs):
            if version < self.floor[j]:
                continue
            kind, known = self.table.get((j, version), ("mes", -1))
            if kind == "mes" and timestamp > known:
                self.table[j, version] = ("mes", timestamp)

    def observe_token(self, token):
        if token.version >= self.floor[token.origin]:
            self.table[token.origin, token.version] = (
                "token", token.timestamp
            )

    def is_obsolete(self, pairs):
        return any(
            version < self.floor[j]
            or (
                self.kind(j, version) == "token"
                and timestamp > self.table[j, version][1]
            )
            for j, (version, timestamp) in enumerate(pairs)
        )

    def missing_tokens(self, pairs):
        return [
            (j, older)
            for j, (version, _) in enumerate(pairs)
            for older in range(self.floor[j], version)
            if self.kind(j, older) != "token"
        ]

    def orphaned_by(self, token):
        kind, known = self.table.get(
            (token.origin, token.version), (None, None)
        )
        return kind == "mes" and known > token.timestamp

    def compact(self):
        dropped = 0
        for j in range(self.n):
            run_end = self.floor[j]
            while self.kind(j, run_end) == "token":
                run_end += 1
            for version in range(self.floor[j], run_end - 1):
                del self.table[j, version]
                dropped += 1
            self.floor[j] = max(self.floor[j], run_end - 1)
        return dropped

    def expected_version(self, j):
        """The first version of ``j`` at or above the floor without a
        token: what an up-to-date sender's clock names for ``j``."""
        version = self.floor[j]
        while self.kind(j, version) == "token":
            version += 1
        return version

    def tokens_in_order(self, j):
        """No token of ``j`` has overtaken an older one (v+1 before v)."""
        first_missing = self.expected_version(j)
        return not any(
            owner == j and version > first_missing and kind == "token"
            for (owner, version), (kind, _) in self.table.items()
        )

    def records(self, j):
        """``(kind, version, timestamp)`` kept about ``j``, oldest first."""
        return [
            (self.table[j, version][0], version, self.table[j, version][1])
            for version in sorted(v for owner, v in self.table if owner == j)
        ]


def random_clock(rng, n):
    return [(rng.randint(0, 3), rng.randint(0, 12)) for _ in range(n)]


def random_token(rng, n):
    return RecoveryToken(
        rng.randrange(n), rng.randint(0, 3), rng.randint(0, 12)
    )


def current_clock(reference, rng):
    """A clock naming, for every process, the version the history expects
    next -- the common message, the one ``admits`` exists for."""
    return [
        (reference.expected_version(j), rng.randint(0, 12))
        for j in range(reference.n)
    ]


def assert_same(history, reference, rng):
    n = reference.n
    # The receive step's fast path is exactly "every entry names the
    # expected version and no token is out of order" ...
    pairs = current_clock(reference, rng)
    in_order = all(reference.tokens_in_order(j) for j in range(n))
    assert history.admits(FTVC.of(pairs)) == in_order
    if n > 1:
        stale = list(pairs)
        j = rng.randrange(n)
        stale[j] = (pairs[j][0] + rng.choice((-1, 1)), pairs[j][1])
        if stale[j][0] >= 0:
            assert not history.admits(FTVC.of(stale))
    for j in range(n):
        assert [
            (r.kind.value, r.version, r.timestamp)
            for r in history.records_for(j)
        ] == reference.records(j)
        assert history.floor(j) == reference.floor[j]
    assert history.size() == len(reference.table)
    for _ in range(4):
        pairs = random_clock(rng, n)
        clock = FTVC.of(pairs)
        assert history.is_obsolete(clock) == reference.is_obsolete(pairs)
        assert history.missing_tokens(clock) == (
            reference.missing_tokens(pairs)
        )
        # ... and whenever it says yes, the two exact tests agree.
        if history.admits(clock):
            assert not reference.is_obsolete(pairs)
            assert reference.missing_tokens(pairs) == []
        token = random_token(rng, n)
        assert history.orphaned_by(token) == reference.orphaned_by(token)
        # Lemma 3: a state survives a token iff it is not its orphan.
        assert history.survives_token(token) != reference.orphaned_by(token)
        record = history.record(token.origin, token.version)
        expected = reference.table.get((token.origin, token.version))
        assert (record is None) == (expected is None)
        if record is not None:
            assert (record.kind.value, record.timestamp) == expected


@pytest.mark.parametrize("seed", range(60))
def test_random_sequences_match_the_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    pid = rng.randrange(n)
    history, reference = History(pid, n), ReferenceHistory(pid, n)
    assert_same(history, reference, rng)
    for _ in range(rng.randint(5, 60)):
        roll = rng.random()
        if roll < 0.55:
            pairs = random_clock(rng, n)
            # Mostly the protocol's contract (obsolete clocks never
            # reach the update), sometimes the raw update itself.
            if rng.random() < 0.2 or not reference.is_obsolete(pairs):
                history.observe_message_clock(FTVC.of(pairs))
                reference.observe_message_clock(pairs)
        elif roll < 0.9:
            token = random_token(rng, n)
            history.observe_token(token)
            reference.observe_token(token)
        else:
            assert history.compact() == reference.compact()
        assert_same(history.snapshot(), reference, rng)


def test_the_fast_path_through_out_of_order_tokens_and_a_floor():
    history = History(0, 3)
    fresh = FTVC.of([(0, 5), (0, 2), (0, 0)])
    assert history.admits(fresh)
    # Token v1 of P1 overtakes token v0: nothing about P1 is settled in
    # one comparison until v0 arrives, whatever version a clock names.
    history.observe_token(RecoveryToken(1, 1, 4))
    for version in (0, 1, 2):
        assert not history.admits(FTVC.of([(0, 5), (version, 1), (0, 0)]))
    assert history.missing_tokens(FTVC.of([(0, 5), (2, 1), (0, 0)])) == [
        (1, 0)
    ]
    history.observe_token(RecoveryToken(1, 0, 2))
    assert history.admits(FTVC.of([(0, 5), (2, 0), (0, 0)]))
    # A clock still on a tokened version takes the exact tests: within
    # the restoration point it is deliverable, beyond it obsolete.
    for timestamp, obsolete in ((4, False), (5, True)):
        old = FTVC.of([(0, 5), (1, timestamp), (0, 0)])
        assert not history.admits(old)
        assert history.is_obsolete(old) == obsolete
    # Compaction raises the floor inside the run of tokens: the expected
    # version stays, and a replayed clock from below the floor is
    # refused by both paths.
    assert history.compact() == 1 and history.floor(1) == 1
    assert history.admits(FTVC.of([(0, 5), (2, 0), (0, 0)]))
    below = FTVC.of([(0, 5), (0, 1), (0, 0)])
    assert not history.admits(below) and history.is_obsolete(below)
    assert history.snapshot().admits(FTVC.of([(0, 9), (2, 3), (0, 1)]))
