"""Hand-scripted reconstructions of the paper's worked examples.

- :func:`figure1` -- the Figure 1 computation: three processes, P1 fails
  having logged only its first receive, state ``s12`` is lost, ``s22`` on
  P2 becomes an orphan and is rolled back; every FTVC box in the figure is
  reproduced exactly.
- :func:`figure5` -- the Figure 5 recovery example: P0 postpones message
  ``m2`` (it mentions version 1 of P1 before P1's version-0 token arrived),
  detects it is an orphan when the token lands and rolls back to its
  checkpoint, and P2 discards the obsolete message ``m0`` outright.

Both scenarios drive the *real* protocol stack -- nothing is mocked -- with
a scripted application and scripted per-message latencies that force the
exact orderings shown in the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import ExperimentResult, ExperimentSpec
from repro.protocols.base import BaseRecoveryProcess, ProtocolConfig
from repro.runtime.app import ProcessContext
from repro.sim.failures import CrashPlan
from repro.sim.network import ScriptedLatency


class ScriptedApp:
    """A table-driven piecewise-deterministic application.

    ``bootstrap_sends[pid]`` lists the messages a process sends at start;
    ``rules[(pid, payload)]`` lists the messages sent on receiving
    ``payload``.  Payloads are plain strings, which keeps the scenario
    scripts readable against the paper's figures ("m1", "m2", ...).
    """

    def __init__(
        self,
        bootstrap_sends: dict[int, list[tuple[int, str]]] | None = None,
        rules: dict[tuple[int, str], list[tuple[int, str]]] | None = None,
    ) -> None:
        self.bootstrap_sends = bootstrap_sends or {}
        self.rules = rules or {}

    def initial_state(self, pid: int, n: int) -> tuple[str, ...]:
        return ()

    def bootstrap(self, pid: int, n: int, ctx: ProcessContext) -> None:
        for dst, payload in self.bootstrap_sends.get(pid, []):
            ctx.send(dst, payload)

    def handle(
        self, state: tuple[str, ...], payload: str, ctx: ProcessContext
    ) -> tuple[str, ...]:
        for dst, out in self.rules.get((ctx.pid, payload), []):
            ctx.send(dst, out)
        return state + (payload,)


@dataclass
class ScenarioResult(ExperimentResult):
    """A finished scripted run plus handles for assertions."""

    notes: dict[str, Any] = field(default_factory=dict)


def _build(
    app: ScriptedApp,
    latency: ScriptedLatency,
    crashes: CrashPlan,
    protocol_cls: type[BaseRecoveryProcess] = DamaniGargProcess,
    horizon: float = 60.0,
) -> ScenarioResult:
    """Assemble a three-process scripted run, not yet started."""
    return ScenarioResult.build(
        ExperimentSpec(
            n=3,
            app=app,
            protocol=protocol_cls,
            horizon=horizon,
            latency=latency,
            config=ProtocolConfig(checkpoint_interval=1e9, flush_interval=1e9),
            crashes=crashes,
        )
    )


def figure1() -> ScenarioResult:
    """Reproduce the Figure 1 computation exactly.

    Timeline (virtual time):

    ====  =====================================================
    t=0   P2 sends m0 to P1 (slow: arrives t=50, after restart);
          P0 sends m1 (arrives t=5) and m2 (arrives t=10) to P1
    t=5   P1 delivers m1 -> state s11
    t=7   P1 flushes its log (m1 becomes stable)
    t=10  P1 delivers m2 -> state s12, which sends m3 to P2
    t=15  P2 delivers m3 -> state s22
    t=20  P1 crashes (m2 was never flushed: s12 is lost)
    t=22  P1 restarts: restores, replays m1, broadcasts token, r10
    ~t=24 P2 receives the token, finds s22 orphaned, rolls back: r20
    t=50  m0 arrives at restarted P1
    ====  =====================================================
    """
    app = ScriptedApp(
        bootstrap_sends={
            2: [(1, "m0")],
            0: [(1, "m1"), (1, "m2")],
        },
        rules={
            (1, "m2"): [(2, "m3")],
        },
    )
    latency = (
        ScriptedLatency(default=2.0)
        .plan(2, 1, 50.0)          # m0
        .plan(0, 1, 5.0, 10.0)     # m1, m2
        .plan(1, 2, 5.0)           # m3 (sent at t=10, arrives t=15)
    )
    result = _build(app, latency, CrashPlan().crash(20.0, 1, downtime=2.0))
    result.sim.schedule_at(
        7.0, result.protocols[1].flush_log, label="flush-m1"
    )
    result.run()
    result.notes = {
        "s11": ((0, 1), (0, 2), (0, 0)),
        "s12": ((0, 2), (0, 3), (0, 0)),
        "s22": ((0, 2), (0, 3), (0, 3)),
        "r10": ((0, 1), (1, 0), (0, 0)),
        "r20": ((0, 0), (0, 0), (0, 3)),
        "p1_after_m0": ((0, 1), (1, 1), (0, 1)),
    }
    return result


def figure5() -> ScenarioResult:
    """Reproduce the Figure 5 recovery behaviours exactly.

    - ``x2`` reaches P1 and is never flushed; the state it creates sends
      ``m1`` to P0, so after P1's failure that state is lost and P0 --
      having delivered ``m1`` -- is an orphan.
    - P0's orphan state sends ``m0`` to P2 (slow), so ``m0`` is obsolete.
    - After restarting, P1 (now version 1) sends ``m2`` to P0, which
      arrives *before* P1's version-0 token does: P0 must postpone it.
    - P1's token then reaches P0: rollback, after which ``m2`` is
      delivered.  The token reached P2 much earlier, so when ``m0``
      finally arrives P2 discards it as obsolete.

    Timeline:

    ====  =====================================================
    t=2   P1 delivers x1 (flushed at t=3: survives the crash)
    t=4   P1 delivers x2 (volatile: will be lost), sends m1 to P0
    t=6   P0 delivers m1, sends m0 to P2 (arrives t=30)
    t=7   P0 flushes its log
    t=8   P1 crashes; t=10 restarts, token to P2 (t=12) / P0 (t=20)
    t=14  P1 delivers x3 (version 1), sends m2 to P0 (arrives t=16)
    t=16  P0 postpones m2 (no token for P1 version 0 yet)
    t=20  token reaches P0: orphan -> rollback (r00); m2 delivered
    t=30  m0 reaches P2: discarded as obsolete
    ====  =====================================================
    """
    app = ScriptedApp(
        bootstrap_sends={
            0: [(1, "x1")],
            2: [(1, "x2"), (1, "x3")],
        },
        rules={
            (1, "x2"): [(0, "m1")],
            (0, "m1"): [(2, "m0")],
            (1, "x3"): [(0, "m2")],
        },
    )
    latency = (
        ScriptedLatency(default=2.0)
        .plan(0, 1, 2.0)                   # x1
        .plan(2, 1, 4.0, 14.0)             # x2 (t=4), x3 (t=14)
        .plan(1, 0, 2.0, 2.0)              # m1 (t=6), m2 (t=16)
        .plan(0, 2, 24.0)                  # m0 (t=30)
        .plan(1, 2, 2.0, kind="token")     # token to P2 (t=12)
        .plan(1, 0, 10.0, kind="token")    # token to P0 (t=20)
    )
    result = _build(app, latency, CrashPlan().crash(8.0, 1, downtime=2.0))
    sim, protocols = result.sim, result.protocols
    sim.schedule_at(3.0, protocols[1].flush_log, label="flush-x1")
    sim.schedule_at(7.0, protocols[0].flush_log, label="flush-m1")
    result.run()
    return result


def cascade(protocol_cls: type[BaseRecoveryProcess]) -> ScenarioResult:
    """The Table 1 "rollbacks per failure" scenario, deterministically.

    One root failure (P0) whose lost state had infected both P1 and P2:

    ====  ======================================================
    t=0.5 P2's bootstrap message x reaches P0 (never flushed:
          the state it creates is doomed)
    t=1   that doomed state's message a0 reaches P2 -> state w0
    t=2   its message a1 reaches P1 -> state u1
    t=4   P1 (now infected) sends b1 to P2 -> state w1
    t=5   P0 crashes; t=6 restarts and announces
    t=6.5 P0's token reaches P1: u1 is an orphan, P1 rolls back
    t=8   *what P1's rollback implies* reaches P2 first
    t=20  P0's root token finally reaches P2
    ====  ======================================================

    Under Strom-Yemini, P1's rollback ends an incarnation and broadcasts
    its own announcement; P2 rolls back once for it (to w0, which that
    announcement cannot condemn) and then *again* when the root token
    lands -- the cascade behind the paper's O(2^n) column.  Under
    Damani-Garg, P1's rollback announces nothing; P2 learns everything
    from the root token and rolls back exactly once.
    """
    app = ScriptedApp(
        bootstrap_sends={2: [(0, "x"), (0, "pad")]},
        rules={
            (0, "x"): [(2, "a0"), (1, "a1")],
            (1, "a1"): [(2, "b1")],
        },
    )
    latency = (
        ScriptedLatency(default=2.0)
        .plan(2, 0, 0.5, 50.0)             # x at t=0.5; pad arrives late
        .plan(0, 2, 0.5)                   # a0 at t=1
        .plan(0, 1, 1.5)                   # a1 at t=2
        .plan(1, 2, 2.0)                   # b1 at t=4
        .plan(0, 1, 0.5, kind="token")     # root token to P1 at t=6.5
        .plan(0, 2, 14.0, kind="token")    # root token to P2 at t=20
        .plan(1, 2, 1.5, kind="token")     # P1's announcements (S-Y only)
        .plan(1, 0, 1.5, kind="token")
    )
    result = _build(
        app, latency, CrashPlan().crash(5.0, 0, downtime=1.0),
        protocol_cls, horizon=80.0,
    )
    result.run()
    return result
