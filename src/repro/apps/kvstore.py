"""A replicated key-value store as a piecewise-deterministic workload.

Topology: processes ``0 .. replicas-1`` are storage replicas; the rest are
clients.  Each key has a *primary* replica (by key hash); clients send
puts/gets to the primary, which applies the operation, pushes a
``KVReplicate`` to the other replicas, and answers the client.  Clients
keep exactly one operation outstanding and derive the next operation
deterministically from their state, so the whole workload is replayable.

The store gives the recovery experiments end-to-end *application-level*
invariants to check after crashes and rollbacks:

- **version monotonicity** -- along any surviving chain, a replica's
  version for a key never decreases;
- **session monotonicity** -- a client never observes a key's version
  going backwards (its reads/writes are ordered by its primary);
- **replica convergence** -- at quiescence with the Remark-1
  retransmission extension enabled, all replicas hold identical data
  (without it, a replicate update received-but-unlogged at a crash can be
  lost forever, and replicas may diverge -- a behaviour the kvstore
  example demonstrates deliberately).

The wire types (``KVPut``, ``KVGet``, ``KVReplicate``, ``KVReply``) and
``hash_key`` live in :mod:`repro.service.kv`, where the client-facing
service serves them; this module is no longer an import path for them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any

from repro.apps.applications import mix64
from repro.runtime.app import ProcessContext
from repro.service.kv import KVGet as _KVGet
from repro.service.kv import KVPut as _KVPut
from repro.service.kv import KVReplicate as _KVReplicate
from repro.service.kv import KVReply as _KVReply
from repro.service.kv import hash_key


# ---------------------------------------------------------------------------
# Process states (immutable; handlers return new instances)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaState:
    """``data`` maps key -> (value, version); stored as a sorted tuple so
    states are hashable and comparable in tests."""

    data: tuple[tuple[str, tuple[int, int]], ...] = ()
    applied: int = 0

    def lookup(self, key: str) -> tuple[int, int] | None:
        # Binary search: ``(key,)`` sorts immediately before
        # ``(key, entry)``, so bisect_left lands on the entry if present.
        i = bisect_left(self.data, (key,))
        if i < len(self.data) and self.data[i][0] == key:
            return self.data[i][1]
        return None

    def store(self, key: str, value: int, version: int) -> "ReplicaState":
        items = dict(self.data)
        items[key] = (value, version)
        return ReplicaState(
            data=tuple(sorted(items.items())), applied=self.applied + 1
        )

    def as_dict(self) -> dict[str, tuple[int, int]]:
        return dict(self.data)


@dataclass(frozen=True)
class ClientState:
    ops_sent: int = 0
    replies: int = 0
    acc: int = 0
    #: last observed (value, version) per key, sorted tuple
    observed: tuple[tuple[str, int], ...] = ()

    def observe(self, key: str, version: int) -> "ClientState":
        seen = dict(self.observed)
        seen[key] = version
        return ClientState(
            ops_sent=self.ops_sent,
            replies=self.replies + 1,
            acc=self.acc,
            observed=tuple(sorted(seen.items())),
        )

    def observed_version(self, key: str) -> int:
        return dict(self.observed).get(key, 0)


class KVStoreApp:
    """The application (both roles; behaviour switches on pid)."""

    def __init__(
        self,
        *,
        replicas: int = 2,
        keys: int = 6,
        ops_per_client: int = 40,
        put_ratio: int = 2,          # of every 3 ops, this many are puts
    ) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica")
        if not 0 <= put_ratio <= 3:
            raise ValueError("put_ratio is out of every 3 ops")
        self.replicas = replicas
        self.keys = keys
        self.ops_per_client = ops_per_client
        self.put_ratio = put_ratio

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def is_replica(self, pid: int) -> bool:
        return pid < self.replicas

    def primary_for(self, key: str) -> int:
        return mix64(hash_key(key), 0) % self.replicas

    # ------------------------------------------------------------------
    # Application protocol
    # ------------------------------------------------------------------
    def initial_state(self, pid: int, n: int) -> Any:
        if self.is_replica(pid):
            return ReplicaState()
        # The bootstrap op (seq 0) is pre-accounted here because bootstrap
        # cannot modify state.
        sends_at_bootstrap = 1 if self.replicas < n else 0
        return ClientState(ops_sent=sends_at_bootstrap)

    def bootstrap(self, pid: int, n: int, ctx: ProcessContext) -> None:
        if self.is_replica(pid) or self.replicas >= n:
            return
        self._issue_op(ClientState(ops_sent=0), pid, ctx)

    def handle(self, state: Any, payload: Any, ctx: ProcessContext) -> Any:
        if self.is_replica(ctx.pid):
            return self._replica_handle(state, payload, ctx)
        return self._client_handle(state, payload, ctx)

    # -- replica side ---------------------------------------------------
    def _replica_handle(
        self, state: ReplicaState, payload: Any, ctx: ProcessContext
    ) -> ReplicaState:
        if isinstance(payload, _KVPut):
            current = state.lookup(payload.key)
            version = (current[1] if current else 0) + 1
            new_state = state.store(payload.key, payload.value, version)
            for replica in range(self.replicas):
                if replica != ctx.pid:
                    ctx.send(
                        replica,
                        _KVReplicate(
                            key=payload.key,
                            value=payload.value,
                            version=version,
                            op_id=payload.op_id,
                        ),
                    )
            ctx.send(
                payload.op_id[0],
                _KVReply(
                    op_id=payload.op_id,
                    key=payload.key,
                    value=payload.value,
                    version=version,
                ),
            )
            return new_state
        if isinstance(payload, _KVReplicate):
            current = state.lookup(payload.key)
            if current is None or payload.version > current[1]:
                return state.store(payload.key, payload.value, payload.version)
            return ReplicaState(data=state.data, applied=state.applied + 1)
        if isinstance(payload, _KVGet):
            current = state.lookup(payload.key)
            value, version = current if current else (None, 0)
            ctx.send(
                payload.op_id[0],
                _KVReply(
                    op_id=payload.op_id,
                    key=payload.key,
                    value=value,
                    version=version,
                ),
            )
            return ReplicaState(data=state.data, applied=state.applied + 1)
        raise TypeError(f"replica got {payload!r}")

    # -- client side ----------------------------------------------------
    def _client_handle(
        self, state: ClientState, payload: Any, ctx: ProcessContext
    ) -> ClientState:
        if not isinstance(payload, _KVReply):
            raise TypeError(f"client got {payload!r}")
        new_state = state.observe(payload.key, payload.version)
        acc = mix64(new_state.acc, payload.version)
        new_state = ClientState(
            ops_sent=new_state.ops_sent,
            replies=new_state.replies,
            acc=acc,
            observed=new_state.observed,
        )
        if new_state.ops_sent < self.ops_per_client:
            new_state = self._issue_op(new_state, ctx.pid, ctx)
        return new_state

    def _issue_op(
        self, state: ClientState, pid: int, ctx: ProcessContext
    ) -> ClientState:
        seq = state.ops_sent
        h = mix64(pid * 7919 + 13, seq)
        key = f"k{h % self.keys}"
        primary = self.primary_for(key)
        if h % 3 < self.put_ratio:
            ctx.send(primary, _KVPut(key=key, value=h & 0xFFFF,
                                     op_id=(pid, seq)))
        else:
            ctx.send(primary, _KVGet(key=key, op_id=(pid, seq)))
        return ClientState(
            ops_sent=seq + 1,
            replies=state.replies,
            acc=state.acc,
            observed=state.observed,
        )
