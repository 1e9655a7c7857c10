"""Simulated message-passing network.

Point-to-point reliable channels between ``n`` endpoints with:

- configurable delivery order: per-channel FIFO, or arbitrary reordering
  (independent latency draws) -- the paper explicitly assumes *nothing*
  about ordering, while several Table 1 baselines require FIFO;
- pluggable latency models, seeded per channel for reproducibility;
- network partitions: messages crossing a partition are held and delivered
  (with a fresh latency) when the partition heals, which models the paper's
  "reliable token delivery" assumption while still letting experiments show
  that a partitioned process recovers without waiting;
- broadcast (used for recovery tokens).

Delivery is *at-least-queued*: the network always hands the message to the
destination's :class:`~repro.sim.env.SimEnv`, which buffers it if
the process is currently crashed.  Loss of received-but-unlogged messages in
a failure is a property of the *process* (volatile memory), not of this
transport, exactly as in the paper's model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Sequence

from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind, SimTrace
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams


class DeliveryOrder(Enum):
    """Channel ordering discipline."""

    FIFO = "fifo"        # per-channel first-in first-out
    RANDOM = "random"    # arbitrary reordering across a channel


class LatencyModel:
    """Base class for channel latency distributions.

    ``sample`` sees the channel and message kind so that models can be
    channel-dependent (scripted scenarios) while plain distributions ignore
    the extra arguments.
    """

    def sample(self, rng, src: int, dst: int, kind: str) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Latency uniform in ``[low, high]``."""

    low: float = 0.5
    high: float = 1.5

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError(f"bad latency bounds [{self.low}, {self.high}]")

    def sample(self, rng, src: int, dst: int, kind: str) -> float:
        # ``rng.uniform(low, high)`` written out: same draw, one frame less.
        return self.low + (self.high - self.low) * rng.random()


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant latency; useful for hand-scripted scenarios."""

    value: float = 1.0

    def sample(self, rng, src: int, dst: int, kind: str) -> float:
        return self.value


class ScriptedLatency(LatencyModel):
    """Per-channel queues of pre-planned latencies.

    The figure scenarios use this to force the exact message orderings shown
    in the paper: the k-th message sent on channel ``(src, dst)`` of kind
    ``kind`` gets the k-th scripted delay; channels without a script fall
    back to ``default``.
    """

    def __init__(self, default: float = 1.0) -> None:
        self.default = default
        self._queues: dict[tuple[int, int, str], list[float]] = {}

    def plan(
        self, src: int, dst: int, *delays: float, kind: str = "app"
    ) -> "ScriptedLatency":
        self._queues.setdefault((src, dst, kind), []).extend(delays)
        return self

    def sample(self, rng, src: int, dst: int, kind: str) -> float:
        queue = self._queues.get((src, dst, kind))
        if queue:
            return queue.pop(0)
        return self.default


class Network:
    """The transport connecting ``n`` process hosts."""

    def __init__(
        self,
        sim: Simulator,
        n: int,
        *,
        streams: RandomStreams | None = None,
        latency: LatencyModel | None = None,
        order: DeliveryOrder = DeliveryOrder.RANDOM,
        trace: SimTrace | None = None,
        duplicate_rate: float = 0.0,
    ) -> None:
        """``duplicate_rate`` turns the transport into at-least-once
        delivery: each application message is delivered a second time with
        that probability (fresh latency).  Only protocols with duplicate
        suppression should be run on such a network."""
        if n <= 0:
            raise ValueError("network needs at least one endpoint")
        if not 0.0 <= duplicate_rate < 1.0:
            raise ValueError(f"bad duplicate_rate {duplicate_rate}")
        self.sim = sim
        self.n = n
        self.order = order
        self.latency = latency if latency is not None else UniformLatency()
        self.trace = trace
        self.duplicate_rate = duplicate_rate
        self.duplicates_injected = 0
        self._streams = streams if streams is not None else RandomStreams(0)
        self._duplication = (
            self._streams.stream("duplication") if duplicate_rate else None
        )
        self._receivers: dict[int, Callable[[NetworkMessage], None]] = {}
        self._msg_ids = itertools.count()
        # Per channel: its latency stream (``latency/<src>-><dst>``) and,
        # for FIFO, the earliest admissible delivery time.
        self._channel_rng: dict[tuple[int, int], Any] = {}
        self._channel_clock: dict[tuple[int, int], float] = {}
        # Partition state: either None (fully connected) or a mapping
        # pid -> group id.
        self._partition: dict[int, int] | None = None
        self._held: list[NetworkMessage] = []
        # Counters for the metrics layer.
        self.sent_count: dict[str, int] = {}
        self.delivered_count: dict[str, int] = {}
        # Messages scheduled on the wire and not yet handed to a receiver
        # (excludes partition-held messages), for the obs in-flight gauge.
        self._in_flight = 0

    # ------------------------------------------------------------------
    # Registration and basic sending
    # ------------------------------------------------------------------
    def register(
        self, pid: int, receiver: Callable[[NetworkMessage], None]
    ) -> None:
        """Attach the receive callback for endpoint ``pid``."""
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid} out of range 0..{self.n - 1}")
        if pid in self._receivers:
            raise ValueError(f"pid {pid} already registered")
        self._receivers[pid] = receiver

    def unregister(self, pid: int) -> None:
        """Detach endpoint ``pid``; messages still due to it can no longer
        be delivered."""
        self._receivers.pop(pid, None)

    def send(
        self,
        src: int,
        dst: int,
        payload: Any,
        *,
        kind: str = "app",
        latency: float | None = None,
    ) -> NetworkMessage:
        """Send ``payload`` from ``src`` to ``dst``; returns the envelope.

        ``latency`` overrides the latency model for this one message, which
        the hand-scripted figure scenarios use to force exact orderings.
        """
        sim = self.sim
        msg = NetworkMessage(
            next(self._msg_ids), src, dst, kind, payload, sim.now, latency
        )
        self.sent_count[kind] = self.sent_count.get(kind, 0) + 1
        tracer = sim.tracer
        if tracer is not None:
            tracer.counter(f"net.sent.{kind}")
        partition = self._partition
        if partition is not None and partition[src] != partition[dst]:
            self._held.append(msg)
            if tracer is not None:
                tracer.counter("net.partition_held")
                tracer.gauge("net.held_messages", len(self._held))
        else:
            self._schedule_delivery(msg)
            if (
                self.duplicate_rate > 0.0
                and kind == "app"
                and self._duplication.random() < self.duplicate_rate
            ):
                self.duplicates_injected += 1
                if tracer is not None:
                    tracer.counter("net.duplicates_injected")
                self._schedule_delivery(msg)
        return msg

    def broadcast(
        self,
        src: int,
        payload: Any,
        *,
        kind: str = "token",
        include_self: bool = False,
    ) -> list[NetworkMessage]:
        """Send ``payload`` to every endpoint (optionally including src)."""
        sent = []
        for dst in range(self.n):
            if dst == src and not include_self:
                continue
            sent.append(self.send(src, dst, payload, kind=kind))
        return sent

    # ------------------------------------------------------------------
    # Delivery machinery
    # ------------------------------------------------------------------
    def _schedule_delivery(self, msg: NetworkMessage) -> None:
        sim = self.sim
        channel = (msg.src, msg.dst)
        if msg.latency_override is not None:
            delay = msg.latency_override
        else:
            rng = self._channel_rng.get(channel)
            if rng is None:
                rng = self._channel_rng[channel] = self._streams.stream(
                    f"latency/{msg.src}->{msg.dst}"
                )
            delay = self.latency.sample(rng, msg.src, msg.dst, msg.kind)
        deliver_at = sim.now + delay
        if self.order is DeliveryOrder.FIFO:
            floor = self._channel_clock.get(channel, 0.0)
            deliver_at = max(deliver_at, floor)
            self._channel_clock[channel] = deliver_at
        self._in_flight += 1
        tracer = sim.tracer
        if tracer is None:
            sim.schedule_at(deliver_at, self._deliver, msg)
        else:
            # The per-message label is formatted only for a tracer: it is
            # the only reader (``sim.event_wall_s.deliver``).
            sim.schedule_at(
                deliver_at, self._deliver, msg,
                label=f"deliver#{msg.msg_id}",
            )
            tracer.gauge("net.in_flight", self._in_flight)

    def _deliver(self, msg: NetworkMessage) -> None:
        self._in_flight -= 1
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None:
            tracer.gauge("net.in_flight", self._in_flight)
        partition = self._partition
        if partition is not None and partition[msg.src] != partition[msg.dst]:
            # A partition was imposed while the message was in flight.
            self._held.append(msg)
            if tracer is not None:
                tracer.counter("net.partition_held")
                tracer.gauge("net.held_messages", len(self._held))
            return
        receiver = self._receivers.get(msg.dst)
        if receiver is None:
            raise RuntimeError(f"no receiver registered for pid {msg.dst}")
        kind = msg.kind
        self.delivered_count[kind] = self.delivered_count.get(kind, 0) + 1
        if tracer is not None:
            tracer.counter(f"net.delivered.{kind}")
            tracer.observe(f"net.latency.{kind}", sim.now - msg.send_time)
        receiver(msg)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, groups: Sequence[Iterable[int]]) -> None:
        """Split the network into the given groups.

        Every pid must appear in exactly one group.  Messages between
        different groups are held until :meth:`heal`.  At most one
        partition can be in force: imposing a second one would silently
        overwrite the first, and the first heal would then release
        everything early.
        """
        if self._partition is not None:
            raise ValueError(
                "network is already partitioned; heal() before imposing "
                "another partition"
            )
        assignment: dict[int, int] = {}
        for gid, group in enumerate(groups):
            for pid in group:
                if pid in assignment:
                    raise ValueError(f"pid {pid} in two partition groups")
                assignment[pid] = gid
        missing = set(range(self.n)) - set(assignment)
        if missing:
            raise ValueError(f"pids {sorted(missing)} missing from partition")
        self._partition = assignment
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter("net.partitions")
            tracer.event(
                "net.partition", groups=[sorted(g) for g in groups]
            )
        if self.trace is not None:
            self.trace.record(
                self.sim.now,
                EventKind.PARTITION,
                -1,
                groups=[sorted(g) for g in groups],
            )

    def heal(self) -> None:
        """Remove the partition and release held messages."""
        self._partition = None
        held, self._held = self._held, []
        if self.order is DeliveryOrder.FIFO:
            # ``_held`` mixes messages held at send time with messages
            # caught *in flight* (partition imposed after scheduling),
            # which join the list at their delivery time -- after later
            # sends held at send time.  Rescheduling in list order would
            # hand the per-channel floor to the later send first and
            # cement the inversion; msg_ids are minted in send order, so
            # sorting restores per-channel send order.
            held.sort(key=lambda m: m.msg_id)
        for msg in held:
            self._schedule_delivery(msg)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter("net.heals")
            tracer.gauge("net.held_messages", 0)
            tracer.event("net.heal", released=len(held))
        if self.trace is not None:
            self.trace.record(self.sim.now, EventKind.HEAL, -1, released=len(held))

    @property
    def held_messages(self) -> int:
        """Messages currently stranded by a partition."""
        return len(self._held)
