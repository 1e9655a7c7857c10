"""The client-facing TCP endpoint a live node hosts for its shard.

One :class:`ServicePort` runs inside each node of a ``kind="kv"`` live
cluster (see :mod:`repro.live.node`), in one of two roles:

- **ingress** (pid 0, the gateway): accepts client connections, reads
  framed JSON requests, and hands each to the protocol via
  ``inject_app_send`` addressed to the key's primary replica.  The
  gateway never receives app messages back, so it is never rolled back
  and its send log is the shard's durable intake ledger (Remark-1
  retransmission replays it to a recovering primary).
- **reply** (replica pids): forwards the replica's application outputs
  (:class:`~repro.service.kv.KVReply`, emitted by ``ctx.output``) to
  every connected client as framed JSON.  Outputs are the one legal exit
  path for replies -- a ``ctx.send`` back to pid 0 would make the
  gateway rollback-able.  The forwarder is woken by the output listener
  (``protocol.output_listener``): every notification of one event-loop
  turn becomes a single forward pass, so a reply leaves the replica in
  the turn after the delivery that produced it.  It forwards
  ``protocol.outputs`` from index 0 on every boot: after a crash the
  checkpoint-restored prefix is re-forwarded, and clients drop acks for
  ops no longer pending.

The wire format is the cluster's own length-prefixed CRC framing
(:mod:`repro.live.framing`) carrying plain JSON objects, so clients need
no codec knowledge:

- request:  ``{"op": "put"|"get", "session": int, "seq": int,
  "key": str, "value": int}`` (``value`` ignored for gets);
- reply:    ``{"session": int, "seq": int, "key": str,
  "value": int|null, "version": int}``;
- hello (server -> client, once per connection):
  ``{"role": "ingress"|"reply", "shard": int, "pid": int,
  "routing_version": int}``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any

from repro.live.framing import frame_json, read_frame
from repro.service.kv import KVGet, KVPut, KVReply, KVServiceApp


class ServicePort:
    """One node's client-facing port (ingress or reply role)."""

    def __init__(
        self,
        pid: int,
        protocol: Any,
        app: KVServiceApp,
        spec: dict[str, Any],
    ) -> None:
        self.pid = pid
        self.protocol = protocol
        self.app = app
        self.spec = spec
        if pid == 0:
            self.role = "ingress"
            self.port = int(spec["ingress_port"])
        elif app.is_replica(pid):
            self.role = "reply"
            self.port = int(spec["reply_ports"][pid - 1])
        else:
            self.role = "none"
            self.port = 0
        self.host = str(spec.get("service_host", "127.0.0.1"))
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._forwarded = 0
        # Monotonic instant of the oldest notification no pass has served
        # yet; None when no pass is owed.
        self._notified_at: float | None = None
        self.forward_passes = 0
        self._delay_sum = 0.0
        self._delay_max = 0.0
        self._delays = 0
        self.requests = 0
        self.puts = 0
        self.gets = 0
        self.rejected = 0
        self.connections = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the port and (for replicas) listen for outputs."""
        if self.role == "none":
            return
        if self.role == "reply":
            self.protocol.output_listener = self._on_outputs
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )

    async def stop(self) -> None:
        """Tear the port down; a final pass drains pending replies."""
        if self.role == "reply":
            self.protocol.output_listener = None
            self._forward_replies()   # don't strand replies in the tail
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()

    def report(self) -> dict[str, Any]:
        """Counters for the node's done file."""
        return {
            "role": self.role,
            "port": self.port,
            "connections": self.connections,
            "requests": self.requests,
            "puts": self.puts,
            "gets": self.gets,
            "rejected": self.rejected,
            "replies_forwarded": self._forwarded,
            "forward_passes": self.forward_passes,
            "forward_delay_mean_ms": (
                1000.0 * self._delay_sum / self._delays if self._delays
                else 0.0
            ),
            "forward_delay_max_ms": 1000.0 * self._delay_max,
        }

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            writer.write(
                frame_json(
                    {
                        "role": self.role,
                        "shard": int(self.spec.get("shard", 0)),
                        "pid": self.pid,
                        "routing_version": int(
                            self.spec.get("routing_version", 1)
                        ),
                    }
                )
            )
            await writer.drain()
            if self.role == "reply":
                self._writers.add(writer)
                self._forward_replies()   # release a held tail now
            while True:
                payload = await read_frame(reader)
                if payload is None:
                    break
                if self.role == "ingress":
                    self._on_request(payload)
                # Reply connections are one-way; inbound frames ignored.
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    def _on_request(self, raw: bytes) -> None:
        try:
            msg = json.loads(raw.decode("utf-8"))
            op = msg["op"]
            op_id = (int(msg["session"]), int(msg["seq"]))
            key = str(msg["key"])
            if op == "put":
                payload: Any = KVPut(
                    key=key, value=int(msg["value"]), op_id=op_id
                )
            elif op == "get":
                payload = KVGet(key=key, op_id=op_id)
            else:
                raise ValueError(f"unknown op {op!r}")
        except (KeyError, ValueError, TypeError, UnicodeDecodeError):
            self.rejected += 1
            return
        self.requests += 1
        if isinstance(payload, KVPut):
            self.puts += 1
        else:
            self.gets += 1
        self.protocol.inject_app_send(
            self.app.primary_for(key), payload
        )

    # ------------------------------------------------------------------
    # Reply forwarding (replica role)
    # ------------------------------------------------------------------
    def _on_outputs(self) -> None:
        # The output listener runs inside protocol code: it only
        # schedules, and the notifications of one loop turn share a pass.
        # While a held tail owes a pass, the connecting reader flushes it.
        if self._notified_at is None:
            self._notified_at = time.monotonic()
            asyncio.get_running_loop().call_soon(self._forward_replies)

    def _forward_replies(self) -> None:
        if not self._writers:
            # Hold the tail while nobody is listening: a restarted
            # replica re-emits replies before its clients have redialled,
            # and one written to no reader is a reply the client never
            # sees (a put whose retry is then acked from no cache).
            return
        outputs = self.protocol.outputs
        if self._forwarded == len(outputs):
            return    # a reader connected to a fully forwarded tail
        self.forward_passes += 1
        while self._forwarded < len(outputs):
            _, value = outputs[self._forwarded]
            self._forwarded += 1
            if not isinstance(value, KVReply):
                continue
            data = frame_json(
                {
                    "session": value.op_id[0],
                    "seq": value.op_id[1],
                    "key": value.key,
                    "value": value.value,
                    "version": value.version,
                }
            )
            for writer in list(self._writers):
                try:
                    writer.write(data)
                except (ConnectionError, RuntimeError):
                    self._writers.discard(writer)
        if self._notified_at is not None:
            delay = time.monotonic() - self._notified_at
            self._notified_at = None
            self._delays += 1
            self._delay_sum += delay
            self._delay_max = max(self._delay_max, delay)
