"""The asyncio KV client: sessions, retries, version floors, metrics.

A :class:`KVClient` talks to every shard of a running service: one
framed-JSON connection to each shard's gateway (requests in) and one to
each replica's reply port (replies out; replicas answer through
application outputs, so replies can come from any replica's forwarder).

**Exactly-once from the client's side.**  A session allocates one seq
per operation and *retries the same ``(session, seq)``* until a reply
arrives; the shard's per-session ledger (:mod:`repro.service.kv`)
guarantees at most one application, and the gateway's durable send log
(Remark-1 retransmission) guarantees at least one.  The client never
invents a second op id for a retry, so a crash cannot turn a retry into
a double write.

**Session monotonicity.**  Each session keeps a per-key *version floor*
-- the compact, dotted-version-vector-spirit session context: the
highest version it has observed per key.  A put ack ratchets the floor;
a get whose reply is below the floor is a **stale read** (a rolled-back
replica answering from its pre-recovery past): the session records the
stale window and retries until the store catches back up, so an accepted
read never violates read-your-writes.

**Metrics.**  Per shard, the client records completed ops, retries, op
latencies, *unavailability intervals* (the [first send, completion]
spans of ops that needed more than one attempt -- the user-visible
outage), and stale-read windows (first stale reply -> first satisfying
reply).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.live.framing import frame_json, read_frame
from repro.service.routing import RoutingTable


@dataclass(frozen=True)
class ShardEndpoint:
    """Where one shard listens: gateway ingress + per-replica reply ports."""

    shard: int
    host: str
    ingress_port: int
    reply_ports: tuple[int, ...]


@dataclass
class ShardClientMetrics:
    """What the client saw of one shard (the user-visible truth)."""

    ops: int = 0
    puts: int = 0
    gets: int = 0
    retries: int = 0
    failures: int = 0                 # ops that never completed
    unmatched_replies: int = 0        # late/duplicate ack frames absorbed
    latencies: list[float] = field(default_factory=list)
    #: [first send, completion] spans of ops needing more than 1 attempt
    unavailable: list[tuple[float, float]] = field(default_factory=list)
    stale_events: int = 0
    stale_durations: list[float] = field(default_factory=list)
    monotonicity_violations: int = 0


class _ShardLink:
    """The client's connections to one shard (dial/retry internals)."""

    def __init__(self, endpoint: ShardEndpoint, closed: asyncio.Event):
        self.endpoint = endpoint
        self.closed = closed
        self.writer: asyncio.StreamWriter | None = None
        self.reader_tasks: list[asyncio.Task] = []

    async def _dial(self, port: int, timeout: float = 0.25):
        return await asyncio.wait_for(
            asyncio.open_connection(self.endpoint.host, port), timeout
        )

    async def send(self, msg: dict[str, Any]) -> bool:
        """Best-effort framed send to the gateway; False if not connected."""
        if self.writer is None:
            try:
                reader, writer = await self._dial(self.endpoint.ingress_port)
                await read_frame(reader)          # hello
                self.writer = writer
            except (OSError, asyncio.TimeoutError):
                return False
        try:
            self.writer.write(frame_json(msg))
            await self.writer.drain()
            return True
        except (ConnectionError, RuntimeError):
            self.writer.close()
            self.writer = None
            return False

    async def read_replies(self, port: int, on_reply) -> None:
        """Reconnect loop on one replica reply port, until closed."""
        while not self.closed.is_set():
            try:
                reader, writer = await self._dial(port)
                await read_frame(reader)          # hello
                while not self.closed.is_set():
                    payload = await read_frame(reader)
                    if payload is None:
                        break
                    on_reply(json.loads(payload.decode("utf-8")))
                writer.close()
            except (OSError, asyncio.TimeoutError, ValueError):
                pass
            if not self.closed.is_set():
                # The replica may be mid-SIGKILL-downtime; keep dialling.
                await asyncio.sleep(0.05)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None
        for task in self.reader_tasks:
            task.cancel()


class KVClient:
    """A multi-shard service client multiplexing many sessions."""

    def __init__(
        self,
        routing: RoutingTable,
        endpoints: Sequence[ShardEndpoint],
        *,
        request_timeout: float = 0.4,
    ) -> None:
        if len(endpoints) != routing.shards:
            raise ValueError(
                f"routing table expects {routing.shards} shard(s), "
                f"got {len(endpoints)} endpoint(s)"
            )
        self.routing = routing
        self.endpoints = list(endpoints)
        self.request_timeout = request_timeout
        self._closed = asyncio.Event()
        self._links = [_ShardLink(ep, self._closed) for ep in self.endpoints]
        self._pending: dict[tuple[int, int], asyncio.Future] = {}
        self._epoch = time.monotonic()
        self.metrics = [ShardClientMetrics() for _ in self.endpoints]
        #: key -> set of acked put op_ids (the exactly-once audit's ledger)
        self.acked_puts: dict[str, set[tuple[int, int]]] = {}
        self._sessions = 0

    def now(self) -> float:
        """Seconds since the client started (its metric timeline)."""
        return time.monotonic() - self._epoch

    async def start(self) -> None:
        """Spawn the reply readers for every shard."""
        for link, metrics in zip(self._links, self.metrics):
            for port in link.endpoint.reply_ports:
                link.reader_tasks.append(
                    asyncio.ensure_future(
                        link.read_replies(
                            port,
                            lambda msg, m=metrics: self._on_reply(msg, m),
                        )
                    )
                )

    async def aclose(self) -> None:
        """Stop readers and close every connection."""
        self._closed.set()
        for link in self._links:
            link.close()
        await asyncio.sleep(0)

    def session(self, session_id: int | None = None) -> "KVSession":
        """A new session (fresh id unless one is supplied)."""
        if session_id is None:
            session_id = self._sessions
        self._sessions = max(self._sessions, session_id) + 1
        return KVSession(self, session_id)

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _on_reply(
        self, msg: dict[str, Any], metrics: ShardClientMetrics
    ) -> None:
        key = (int(msg["session"]), int(msg["seq"]))
        fut = self._pending.get(key)
        if fut is not None and not fut.done():
            fut.set_result(msg)
        else:
            metrics.unmatched_replies += 1

    async def _request(
        self,
        shard: int,
        msg: dict[str, Any],
        deadline: float,
    ) -> tuple[dict[str, Any] | None, float, int]:
        """Send (and resend) one op until a reply or the deadline.

        Returns ``(reply or None, first-send time, attempts)``.
        """
        op_key = (int(msg["session"]), int(msg["seq"]))
        link = self._links[shard]
        t0 = self.now()
        attempts = 0
        loop = asyncio.get_running_loop()
        while self.now() < deadline:
            fut: asyncio.Future = loop.create_future()
            self._pending[op_key] = fut
            attempts += 1
            await link.send(msg)
            # Exponential backoff on the per-attempt budget (capped at
            # 8x): every retry is a fresh gateway request the shard must
            # log, dedup, and re-ack, so fixed-interval retries against
            # an overloaded or recovering shard amplify its load into
            # collapse.  Backoff keeps the amplification logarithmic in
            # the op's total wait while the first retry stays prompt.
            budget = min(
                self.request_timeout * min(8.0, 2.0 ** (attempts - 1)),
                deadline - self.now(),
            )
            try:
                reply = await asyncio.wait_for(fut, timeout=max(0.01, budget))
                return reply, t0, attempts
            except asyncio.TimeoutError:
                continue
            finally:
                self._pending.pop(op_key, None)
        return None, t0, attempts


class KVSession:
    """One user session: sequential ops, per-key version floors."""

    def __init__(self, client: KVClient, session_id: int) -> None:
        self.client = client
        self.session_id = session_id
        self.seq = 0
        self.floors: dict[str, int] = {}
        self.failed_ops = 0

    def _next_seq(self) -> int:
        seq = self.seq
        self.seq += 1
        return seq

    def _finish(
        self,
        metrics: ShardClientMetrics,
        reply: dict[str, Any] | None,
        t0: float,
        attempts: int,
    ) -> None:
        done = self.client.now()
        if reply is None:
            self.failed_ops += 1
            metrics.failures += 1
            metrics.retries += max(0, attempts - 1)
            metrics.unavailable.append((t0, done))
            return
        metrics.ops += 1
        metrics.latencies.append(done - t0)
        if attempts > 1:
            metrics.retries += attempts - 1
            metrics.unavailable.append((t0, done))

    async def put(
        self, key: str, value: int, *, deadline: float | None = None
    ) -> dict[str, Any] | None:
        """Write ``key``; retries the same op id until acked.

        Returns the ack (``{"version": ...}``) or ``None`` on deadline.
        """
        shard = self.client.routing.shard_for(key)
        metrics = self.client.metrics[shard]
        seq = self._next_seq()
        msg = {
            "op": "put",
            "session": self.session_id,
            "seq": seq,
            "key": key,
            "value": int(value),
        }
        if deadline is None:
            deadline = self.client.now() + 30.0
        reply, t0, attempts = await self.client._request(shard, msg, deadline)
        metrics.puts += 1
        self._finish(metrics, reply, t0, attempts)
        if reply is None:
            return None
        version = int(reply["version"])
        if version <= self.floors.get(key, 0):
            # A put must advance past everything this session observed;
            # anything else is a lost or duplicated update surfacing.
            metrics.monotonicity_violations += 1
        self.floors[key] = max(self.floors.get(key, 0), version)
        self.client.acked_puts.setdefault(key, set()).add(
            (self.session_id, seq)
        )
        return reply

    async def get(
        self,
        key: str,
        *,
        min_version: int = 0,
        deadline: float | None = None,
    ) -> dict[str, Any] | None:
        """Read ``key``; stale replies (below the session floor) retry.

        Returns the first reply at or above the floor, or ``None`` on
        deadline.  The accepted version ratchets the floor.
        """
        shard = self.client.routing.shard_for(key)
        metrics = self.client.metrics[shard]
        floor = max(self.floors.get(key, 0), min_version)
        seq = self._next_seq()
        msg = {
            "op": "get",
            "session": self.session_id,
            "seq": seq,
            "key": key,
        }
        if deadline is None:
            deadline = self.client.now() + 30.0
        stale_since: float | None = None
        first_t0: float | None = None
        attempts_total = 0
        while True:
            reply, t0, attempts = await self.client._request(
                shard, msg, deadline
            )
            first_t0 = t0 if first_t0 is None else first_t0
            attempts_total += attempts
            if reply is None:
                metrics.gets += 1
                self._finish(metrics, None, first_t0, attempts_total)
                if stale_since is not None:
                    metrics.stale_durations.append(
                        self.client.now() - stale_since
                    )
                return None
            version = int(reply["version"])
            if version < floor:
                # Stale read: a recovering replica answered from a
                # timeline that predates writes this session saw acked.
                if stale_since is None:
                    stale_since = self.client.now()
                    metrics.stale_events += 1
                await asyncio.sleep(0.02)
                continue
            metrics.gets += 1
            self._finish(metrics, reply, first_t0, attempts_total)
            if stale_since is not None:
                metrics.stale_durations.append(
                    self.client.now() - stale_since
                )
            self.floors[key] = max(floor, version)
            return reply
