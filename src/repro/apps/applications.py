"""Deterministic application state machines (see package docstring)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.runtime.app import ProcessContext

_MASK64 = (1 << 64) - 1


def mix64(a: int, b: int) -> int:
    """A deterministic 64-bit mixer (splitmix-style).

    Used wherever a workload wants irregular-but-replayable behaviour.
    """
    x = (a * 6364136223846793005 + b + 1442695040888963407) & _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 29
    return x


# ---------------------------------------------------------------------------
# Random routing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkItem:
    """A hop-bounded unit of work wandering through the system."""

    hops_left: int
    value: int
    origin: int
    serial: int

    def __repr__(self) -> str:
        return f"Work(o{self.origin}#{self.serial} hops={self.hops_left})"


def _share(state: Any, memo: dict) -> Any:
    """``__deepcopy__`` of an immutable state: a checkpoint may hold the
    state itself, there is nothing a copy would protect."""
    return state


@dataclass(frozen=True)
class RoutingState:
    """Per-process state of :class:`RandomRoutingApp` (immutable)."""

    received: int = 0
    acc: int = 0            # rolling hash of everything consumed

    __deepcopy__ = _share


class RandomRoutingApp:
    """Hop-bounded chaotic routing.

    ``seeds`` processes bootstrap ``initial_items`` work items each; every
    receive folds the item into the local accumulator and forwards it (with
    one hop fewer) to a destination derived deterministically from the new
    accumulator.  ``fanout`` > 1 occasionally splits an item to keep message
    pressure up on larger systems.
    """

    def __init__(
        self,
        *,
        hops: int = 32,
        seeds: tuple[int, ...] = (0,),
        initial_items: int = 2,
        fanout: int = 1,
    ) -> None:
        if hops < 0 or initial_items < 0 or fanout < 1:
            raise ValueError("bad RandomRoutingApp parameters")
        self.hops = hops
        self.seeds = seeds
        self.initial_items = initial_items
        self.fanout = fanout

    def initial_state(self, pid: int, n: int) -> RoutingState:
        return RoutingState()

    def bootstrap(self, pid: int, n: int, ctx: ProcessContext) -> None:
        if pid not in self.seeds or n < 2:
            return
        for serial in range(self.initial_items):
            value = mix64(pid + 1, serial + 1)
            dst = self._route(value, pid, n)
            ctx.send(
                dst,
                WorkItem(
                    hops_left=self.hops, value=value, origin=pid, serial=serial
                ),
            )

    def handle(
        self, state: RoutingState, payload: WorkItem, ctx: ProcessContext
    ) -> RoutingState:
        acc = mix64(state.acc, payload.value)
        new_state = RoutingState(received=state.received + 1, acc=acc)
        if payload.hops_left > 0 and ctx.n >= 2:
            copies = self.fanout if acc % 16 == 0 else 1
            for copy in range(copies):
                value = mix64(acc, copy)
                dst = self._route(value, ctx.pid, ctx.n)
                ctx.send(
                    dst,
                    WorkItem(
                        hops_left=payload.hops_left - 1,
                        value=value,
                        origin=payload.origin,
                        serial=payload.serial,
                    ),
                )
        return new_state

    @staticmethod
    def _route(value: int, pid: int, n: int) -> int:
        """A destination other than ourselves, derived from ``value``."""
        dst = value % (n - 1)
        if dst >= pid:
            dst += 1
        return dst


# ---------------------------------------------------------------------------
# Ping-pong
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Ping:
    round: int


class PingPongApp:
    """Adjacent pairs (0,1), (2,3), ... bounce a counter ``rounds`` times."""

    def __init__(self, rounds: int = 50) -> None:
        self.rounds = rounds

    def initial_state(self, pid: int, n: int) -> int:
        return 0

    def bootstrap(self, pid: int, n: int, ctx: ProcessContext) -> None:
        if pid % 2 == 0 and pid + 1 < n:
            ctx.send(pid + 1, Ping(round=1))

    def handle(self, state: int, payload: Ping, ctx: ProcessContext) -> int:
        partner = ctx.pid + 1 if ctx.pid % 2 == 0 else ctx.pid - 1
        if payload.round < self.rounds and 0 <= partner < ctx.n:
            ctx.send(partner, Ping(round=payload.round + 1))
        return payload.round


# ---------------------------------------------------------------------------
# Bank
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Transfer:
    amount: int
    serial: tuple[int, int]      # (sender pid, sender transfer count)


@dataclass(frozen=True)
class BankState:
    balance: int
    sent_transfers: int = 0
    received_transfers: int = 0

    __deepcopy__ = _share


class BankApp:
    """Deterministic money shuffling with a conservation invariant.

    Each process starts with ``initial_balance``; on receiving a transfer it
    credits the amount, then (while it still has funds and the hop budget
    derived from the serial allows) debits a deterministic fraction and
    sends it onward.  At any consistent global state,
    ``sum(balances) + sum(in-flight transfers) == n * initial_balance`` --
    the invariant the recovery examples check after crashes.
    """

    def __init__(
        self,
        *,
        initial_balance: int = 1000,
        seeds: tuple[int, ...] = (0,),
        max_chain: int = 64,
    ) -> None:
        self.initial_balance = initial_balance
        self.seeds = seeds
        self.max_chain = max_chain

    def initial_state(self, pid: int, n: int) -> BankState:
        # Seed branches start pre-debited by the transfer their bootstrap
        # sends (bootstrap cannot modify state), keeping the global
        # conservation invariant exact: balances + in-flight == n * initial.
        balance = self.initial_balance
        if pid in self.seeds and n >= 2:
            balance -= self.initial_balance // 4
        return BankState(balance=balance)

    def bootstrap(self, pid: int, n: int, ctx: ProcessContext) -> None:
        if pid not in self.seeds or n < 2:
            return
        amount = self.initial_balance // 4
        dst = (pid + 1) % n
        ctx.send(dst, Transfer(amount=amount, serial=(pid, 0)))

    def handle(
        self, state: BankState, payload: Transfer, ctx: ProcessContext
    ) -> BankState:
        balance = state.balance + payload.amount
        received = state.received_transfers + 1
        sent = state.sent_transfers
        chain_position = payload.serial[1]
        if chain_position < self.max_chain and balance > 0 and ctx.n >= 2:
            h = mix64(balance, chain_position + 1)
            amount = 1 + h % max(1, balance // 2)
            dst = h % (ctx.n - 1)
            if dst >= ctx.pid:
                dst += 1
            balance -= amount
            ctx.send(
                dst, Transfer(amount=amount, serial=(ctx.pid, chain_position + 1))
            )
            sent += 1
        return BankState(
            balance=balance, sent_transfers=sent, received_transfers=received
        )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Job:
    job_id: int
    stage: int
    value: int


class PipelineApp:
    """Stage ``i`` transforms jobs and forwards them to stage ``i+1``.

    Stage 0 bootstraps ``jobs`` items; the final stage emits the finished
    value to the environment via ``ctx.output`` -- the surface on which the
    output-commit extension is demonstrated.
    """

    def __init__(self, jobs: int = 10) -> None:
        self.jobs = jobs

    def initial_state(self, pid: int, n: int) -> int:
        return 0   # jobs processed at this stage

    def bootstrap(self, pid: int, n: int, ctx: ProcessContext) -> None:
        if pid != 0 or n < 2:
            return
        for job_id in range(self.jobs):
            ctx.send(1, Job(job_id=job_id, stage=1, value=mix64(job_id, 0)))

    def handle(self, state: int, payload: Job, ctx: ProcessContext) -> int:
        value = mix64(payload.value, ctx.pid + 1)
        if payload.stage == ctx.n - 1:
            ctx.output(("done", payload.job_id, value))
        else:
            ctx.send(
                payload.stage + 1,
                Job(job_id=payload.job_id, stage=payload.stage + 1, value=value),
            )
        return state + 1
