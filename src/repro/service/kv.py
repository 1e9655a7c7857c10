"""The served KV workload: wire types, session dedup, service application.

This module is the home of the KV wire vocabulary (the simulator
workload :mod:`repro.apps.kvstore` speaks it too) plus the *service*
flavour of the replica: :class:`KVServiceApp`, the application one shard
of ``repro.service`` runs.

Topology inside one shard of ``n`` processes:

- **pid 0 is the gateway**: it injects client requests into the protocol
  via :meth:`~repro.core.recovery.DamaniGargProcess.inject_app_send` and
  *never receives an application message* (replicas answer clients
  through environment outputs, not sends back to pid 0).  That keeps the
  gateway outside every rollback: its send log is the shard's durable
  intake ledger, so a put lost in a replica crash is revived by the
  Remark-1 retransmission the recovery token triggers.
- **pids 1..replicas are replicas**: each key has a fixed primary by
  hash; the primary applies puts, pushes :class:`KVReplicate` to its
  peers, and answers via ``ctx.output`` (forwarded to clients by the
  node's service port).

Exactly-once across crash/rollback rides on a per-session ledger inside
:class:`ServiceReplicaState`: the primary records the *set* of applied
put seqs per session (not just the highest), so

- a client retry of an already-applied ``op_id`` is recognised as a
  duplicate and answered from the cached reply instead of re-applied,
  even when the retry raced a crash; and
- a put that *was* applied but whose application rolled back is *not* in
  the (equally rolled-back) ledger, so its redelivery after recovery
  applies normally -- the ledger can never suppress a legitimate
  re-application, which a "last seq per session" high-water mark would.

Gets are deliberately not deduplicated: they are idempotent, and a
retried get should observe the *current* store, which is what lets the
client's per-key version floors (its compact, dotted-version-vector-ish
session context) ratchet forward out of a stale window.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any

from repro.apps.applications import mix64
from repro.runtime.app import ProcessContext


# ---------------------------------------------------------------------------
# Wire types (canonical home; repro.apps.kvstore re-exports with shims)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KVPut:
    """Apply ``key = value`` at the key's primary; acked by a KVReply."""

    key: str
    value: int
    op_id: tuple[int, int]          # (session/client id, op seq)


@dataclass(frozen=True)
class KVGet:
    """Read ``key`` at its primary; answered by a KVReply."""

    key: str
    op_id: tuple[int, int]


@dataclass(frozen=True)
class KVReplicate:
    """Primary-to-backup push of one applied write."""

    key: str
    value: int
    version: int
    op_id: tuple[int, int]


@dataclass(frozen=True)
class KVReply:
    """The answer to one put/get: the key's value and version."""

    op_id: tuple[int, int]
    key: str
    value: int | None
    version: int


def hash_key(key: str) -> int:
    """Stable (non-salted) string hash for key placement."""
    value = 0
    for ch in key:
        value = mix64(value, ord(ch))
    return value


def lookup_sorted(
    data: tuple[tuple[str, Any], ...], key: str
) -> Any | None:
    """Binary-search a ``(key, entry)`` tuple sorted by key.

    ``(key,)`` sorts immediately before ``(key, anything)``, so
    ``bisect_left`` lands on the entry if it exists.
    """
    i = bisect_left(data, (key,))
    if i < len(data) and data[i][0] == key:
        return data[i][1]
    return None


# ---------------------------------------------------------------------------
# Replica state with the per-session exactly-once ledger
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SessionSlot:
    """One session's ledger at one primary.

    ``applied`` is the sorted tuple of put seqs this primary has applied
    for the session -- a set, not a high-water mark, because rollback can
    reorder a retry ahead of the original's re-application.  The reply
    of the *highest* applied seq is cached so a duplicate put can be
    re-acked without touching the store: a session is sequential, so
    that op is the only one its client can still be retrying, whatever
    order recovery re-applied the session's puts in.
    """

    applied: tuple[int, ...] = ()
    last_reply: KVReply | None = None

    def has(self, seq: int) -> bool:
        """Was put ``seq`` already applied on this timeline?"""
        i = bisect_left(self.applied, seq)
        return i < len(self.applied) and self.applied[i] == seq

    def record(self, seq: int, reply: KVReply) -> "SessionSlot":
        """Ledger ``seq`` as applied; cache its reply unless a later op
        of the session already holds the cache."""
        i = bisect_left(self.applied, seq)
        applied = self.applied[:i] + (seq,) + self.applied[i:]
        if i < len(self.applied):
            reply = self.last_reply
        return SessionSlot(applied=applied, last_reply=reply)


@dataclass(frozen=True)
class ServiceReplicaState:
    """Replica state: the store plus the per-session dedup ledgers.

    Both maps are sorted tuples so states stay hashable (snapshot
    identity in the executor) and lookups stay ``O(log n)``.
    """

    #: key -> (value, version), sorted by key
    data: tuple[tuple[str, tuple[int, int]], ...] = ()
    #: session id -> SessionSlot, sorted by session id
    sessions: tuple[tuple[int, SessionSlot], ...] = ()
    applied: int = 0

    def lookup(self, key: str) -> tuple[int, int] | None:
        """The key's ``(value, version)``, or ``None``."""
        return lookup_sorted(self.data, key)

    def slot(self, session: int) -> SessionSlot:
        """The session's ledger (empty slot when never seen)."""
        i = bisect_left(self.sessions, (session,))
        if i < len(self.sessions) and self.sessions[i][0] == session:
            return self.sessions[i][1]
        return SessionSlot()

    def store(
        self, key: str, value: int, version: int,
        session: int | None = None, slot: SessionSlot | None = None,
    ) -> "ServiceReplicaState":
        """Apply one write (and optionally one ledger update)."""
        items = dict(self.data)
        items[key] = (value, version)
        sessions = self.sessions
        if session is not None and slot is not None:
            ledger = dict(self.sessions)
            ledger[session] = slot
            sessions = tuple(sorted(ledger.items()))
        return ServiceReplicaState(
            data=tuple(sorted(items.items())),
            sessions=sessions,
            applied=self.applied + 1,
        )

    def tick(self) -> "ServiceReplicaState":
        """The same state, one more delivery accounted."""
        return ServiceReplicaState(
            data=self.data, sessions=self.sessions, applied=self.applied + 1
        )

    def as_dict(self) -> dict[str, tuple[int, int]]:
        """The store as a plain dict (tests, audits)."""
        return dict(self.data)


class KVServiceApp:
    """One shard's application: gateway at pid 0, replicas at 1..replicas.

    The handlers are pure functions of ``(state, payload)`` -- the
    paper's piecewise-deterministic model -- so checkpoint + stable-log
    replay reconstructs a replica (ledgers included) exactly.
    """

    def __init__(self, *, replicas: int = 3) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.replicas = replicas

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def is_replica(self, pid: int) -> bool:
        """Replicas occupy pids 1..replicas; pid 0 is the gateway."""
        return 1 <= pid <= self.replicas

    def primary_for(self, key: str) -> int:
        """The key's fixed primary replica pid."""
        return 1 + mix64(hash_key(key), 0) % self.replicas

    # ------------------------------------------------------------------
    # Application protocol
    # ------------------------------------------------------------------
    def initial_state(self, pid: int, n: int) -> ServiceReplicaState:
        """Every process starts with an empty store and ledger."""
        return ServiceReplicaState()

    def bootstrap(self, pid: int, n: int, ctx: ProcessContext) -> None:
        """No bootstrap traffic: all load arrives through the gateway."""
        return

    def handle(
        self, state: ServiceReplicaState, payload: Any, ctx: ProcessContext
    ) -> ServiceReplicaState:
        """Dispatch one delivered message on a replica."""
        if not self.is_replica(ctx.pid):
            # The gateway must never receive app messages: a rollback
            # there would regress its injection seq and reuse dedup ids.
            raise TypeError(
                f"gateway p{ctx.pid} received app message {payload!r}"
            )
        if isinstance(payload, KVPut):
            return self._handle_put(state, payload, ctx)
        if isinstance(payload, KVGet):
            current = state.lookup(payload.key)
            value, version = current if current else (None, 0)
            ctx.output(
                KVReply(
                    op_id=payload.op_id,
                    key=payload.key,
                    value=value,
                    version=version,
                )
            )
            return state.tick()
        if isinstance(payload, KVReplicate):
            current = state.lookup(payload.key)
            if current is None or payload.version > current[1]:
                return state.store(
                    payload.key, payload.value, payload.version
                )
            return state.tick()
        raise TypeError(f"replica got {payload!r}")

    def _handle_put(
        self, state: ServiceReplicaState, payload: KVPut, ctx: ProcessContext
    ) -> ServiceReplicaState:
        session, seq = payload.op_id
        slot = state.slot(session)
        if slot.has(seq):
            # Client retry of an op this timeline already applied: ack
            # from the cache, never touch the store.
            if (
                slot.last_reply is not None
                and slot.last_reply.op_id == payload.op_id
            ):
                ctx.output(slot.last_reply)
            return state.tick()
        current = state.lookup(payload.key)
        version = (current[1] if current else 0) + 1
        reply = KVReply(
            op_id=payload.op_id,
            key=payload.key,
            value=payload.value,
            version=version,
        )
        for replica in range(1, self.replicas + 1):
            if replica != ctx.pid:
                ctx.send(
                    replica,
                    KVReplicate(
                        key=payload.key,
                        value=payload.value,
                        version=version,
                        op_id=payload.op_id,
                    ),
                )
        ctx.output(reply)
        return state.store(
            payload.key, payload.value, version,
            session=session, slot=slot.record(seq, reply),
        )
