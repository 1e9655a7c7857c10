"""Completely asynchronous optimistic recovery after Smith, Johnson &
Tygar [25].

The first fully asynchronous optimistic protocol with minimal rollbacks.
It achieves the same recovery behaviour as Damani-Garg -- asynchronous
restart, at most one rollback per failure, arbitrary concurrent failures,
no ordering assumptions -- but maintains "information about two levels of
partial order: one for the application and the other for the recovery"
*on every message*:

- the sender's fault-tolerant clock (n entries);
- the sender's complete knowledge of failure announcements (up to n·f
  entries);
- the sender's view of every process's clock -- an n x n matrix of
  versioned entries.

That is the O(n²f) timestamp overhead of Table 1, and "the main drawback
of their algorithm" that Damani-Garg's history mechanism eliminates by
moving the same information into cheap volatile memory.  Because failure
knowledge rides on application messages, a receiver can detect it is an
orphan on an ordinary receive, before the failed process's broadcast
reaches it -- the one behavioural advantage of paying for the bigger
piggyback.

Implementation note: the recovery logic proper is shared with
:class:`~repro.core.recovery.DamaniGargProcess` (the protocols make
identical rollback decisions; the paper's comparison is about *where the
information lives*), so this class overrides only the wire format, the
knowledge propagation, and the overhead accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.ftvc import FaultTolerantVectorClock
from repro.core.recovery import DamaniGargProcess
from repro.core.tokens import RecoveryToken
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind


@dataclass(frozen=True)
class SJTEnvelope:
    """The O(n²f) wire format.

    Field names ``payload``/``clock``/``dedup_id`` deliberately match
    :class:`~repro.core.recovery.AppEnvelope` so the inherited delivery
    path works unchanged.
    """

    payload: Any
    clock: FaultTolerantVectorClock
    dedup_id: tuple[int, int]
    known_tokens: tuple[RecoveryToken, ...]
    matrix: tuple[FaultTolerantVectorClock, ...]

    def piggyback_entries(self) -> int:
        return (
            self.clock.piggyback_entries()
            + len(self.known_tokens)
            + sum(row.piggyback_entries() for row in self.matrix)
        )


class SmithJohnsonTygarProcess(DamaniGargProcess):
    """One Smith-Johnson-Tygar process."""

    name = "Smith-Johnson-Tygar"
    requires_fifo = False
    asynchronous_recovery = True
    tolerates_concurrent_failures = True

    def __init__(self, env, app, config=None) -> None:
        super().__init__(env, app, config)
        self.matrix: list[FaultTolerantVectorClock] = [
            FaultTolerantVectorClock.initial(j, self.n) for j in range(self.n)
        ]
        self._known_tokens: dict[tuple[int, int], RecoveryToken] = {}

    # ------------------------------------------------------------------
    # Knowledge propagation
    # ------------------------------------------------------------------
    def _remember_token(self, token: RecoveryToken) -> None:
        self._known_tokens[(token.origin, token.version)] = token

    def _receive_app(self, msg: NetworkMessage) -> None:
        envelope: SJTEnvelope = msg.payload
        # Failure knowledge rides on the message: absorb it first (it may
        # reveal that we are an orphan right now), then proceed with the
        # inherited obsolete/deliverability/delivery logic.
        for token in envelope.known_tokens:
            if (token.origin, token.version) not in self._known_tokens:
                self._remember_token(token)
                self.storage.log_token(token)
                self._apply_token(token)
        self.matrix = [
            mine.merge(theirs)
            for mine, theirs in zip(self.matrix, envelope.matrix)
        ]
        super()._receive_app(msg)
        self.matrix[self.pid] = self.clock

    def _receive_token(self, token: RecoveryToken) -> None:
        self._remember_token(token)
        super()._receive_token(token)

    def on_restart(self) -> None:
        super().on_restart()
        for token in self.storage.tokens:
            self._remember_token(token)
        self.matrix[self.pid] = self.clock

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def _send_app(self, dst: int, payload: Any, *, transmit: bool) -> None:
        self.matrix[self.pid] = self.clock
        envelope = SJTEnvelope(
            payload=payload,
            clock=self.clock,
            dedup_id=(self.pid, self._send_seq),
            known_tokens=tuple(self._known_tokens.values()),
            matrix=tuple(self.matrix),
        )
        self._send_seq += 1
        if transmit:
            sent = self.env.send(dst, envelope, kind="app")
            self.stats.app_sent += 1
            self.stats.piggyback_entries += envelope.piggyback_entries()
            self.stats.piggyback_bits += envelope.piggyback_entries() * 40
            if self.trace is not None:
                self.trace.record(
                    self.env.now,
                    EventKind.SEND,
                    self.pid,
                    msg_id=sent.msg_id,
                    dst=dst,
                    uid=self.executor.current_uid,
                    dedup=envelope.dedup_id,
                )
        self.clock = self.clock.tick(self.pid)

    def _rebuild_envelope(self, payload, clock, dedup_id):
        """Re-presented log entries get the local failure knowledge
        attached (the original piggyback is gone; ours is a superset of
        whatever the sender knew when it sent the message)."""
        return SJTEnvelope(
            payload=payload,
            clock=clock,
            dedup_id=dedup_id,
            known_tokens=tuple(self._known_tokens.values()),
            matrix=tuple(self.matrix),
        )

    def checkpoint_extras(self) -> dict[str, Any]:
        extras = super().checkpoint_extras()
        extras["matrix"] = list(self.matrix)
        extras["known_tokens"] = dict(self._known_tokens)
        return extras

    def _restore_checkpoint(self, ckpt) -> None:
        super()._restore_checkpoint(ckpt)
        self.matrix = list(ckpt.extras["matrix"])
        self._known_tokens = dict(ckpt.extras["known_tokens"])
        for token in self.storage.tokens:
            self._remember_token(token)

    def piggyback_entry_count(self) -> int:
        """O(n²f): the clock, the token table, and the n x n matrix."""
        return (
            self.n
            + len(self._known_tokens)
            + self.n * self.n
        )
