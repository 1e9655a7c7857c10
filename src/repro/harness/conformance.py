"""Differential protocol conformance: one workload, every protocol.

Table 1's thesis is that eight very different recovery protocols all
implement the *same* abstract service: deliver application messages, lose
nothing that was committed, and leave no orphan computation behind after a
failure.  This module makes that claim executable.  The same seeded
workload-plus-failure schedule (a :class:`~repro.apps.PipelineApp` run
under FIFO ordering, a valid strengthening of every protocol's ordering
assumption) is pushed through every implementation in
:data:`PROTOCOL_REGISTRY`, and each run is graded against the shared
invariants:

- the recovery verdict (:func:`repro.analysis.consistency.check_recovery`)
  with per-protocol expectations from :func:`grade_kwargs`;
- **no orphan survives recovery** -- checked directly against the ground
  truth, independent of the verdict's own bookkeeping;
- **useful-output consistency** -- environment-committed outputs that the
  post-hoc ground truth does *not* condemn must be a duplicate-free
  subsequence of the outputs a failure-free reference run produces.  A
  protocol may commit fewer outputs (it ran out of horizon) but never
  different or reordered ones;
- **rollback bound** -- ``max_rollbacks_for_single_failure`` must respect
  the protocol's published Table 1 bound (1 for everyone except
  Strom-Yemini's ``2^n`` domino worst case and coordinated
  checkpointing's whole-system rollback).

The checks are exposed individually so the mutation tests can prove they
have teeth: forging a condemned output into a trace, or tightening a
bound to zero, must produce a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.consistency import check_recovery
from repro.apps import PipelineApp
from repro.core.recovery import DamaniGargProcess
from repro.harness.runner import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.protocols import (
    CausalLoggingProcess,
    CoordinatedProcess,
    PessimisticReceiverProcess,
    PetersonKearnsProcess,
    ProtocolConfig,
    SenderBasedProcess,
    SistlaWelchProcess,
    SmithJohnsonTygarProcess,
    StromYeminiProcess,
)
from repro.sim.failures import CrashPlan
from repro.sim.network import DeliveryOrder
from repro.runtime.trace import EventKind

#: Canonical CLI name -> protocol class, for every implementation the repo
#: has.  The CLI, the conformance suite, and the parallel Table 1 harness
#: all resolve protocols through this one registry.
PROTOCOL_REGISTRY = {
    "damani-garg": DamaniGargProcess,
    "strom-yemini": StromYeminiProcess,
    "sender-based": SenderBasedProcess,
    "sistla-welch": SistlaWelchProcess,
    "peterson-kearns": PetersonKearnsProcess,
    "smith-johnson-tygar": SmithJohnsonTygarProcess,
    "pessimistic": PessimisticReceiverProcess,
    "causal": CausalLoggingProcess,
    "coordinated": CoordinatedProcess,
}


def registry_name(protocol_cls) -> str:
    """The canonical CLI name of a registered protocol class."""
    for name, cls in PROTOCOL_REGISTRY.items():
        if cls is protocol_cls:
            return name
    raise KeyError(f"{protocol_cls!r} is not in PROTOCOL_REGISTRY")


def grade_kwargs(protocol_cls) -> dict:
    """Which oracle expectations the protocol actually promises.

    Strom-Yemini tolerates cascaded (domino) rollbacks and coordinated
    checkpointing rolls the whole system back, so neither promises
    minimal/single rollback; everyone else does.
    """
    promises_minimal = protocol_cls not in (
        StromYeminiProcess,
        CoordinatedProcess,
    )
    return {
        "expect_minimal_rollback": promises_minimal,
        "expect_maximum_recovery": promises_minimal,
        "expect_single_rollback_per_failure": promises_minimal,
    }


#: Table 1's "maximum rollbacks per failure" column as a function of n.
_ROLLBACK_BOUNDS: dict[type, Callable[[int], int]] = {
    StromYeminiProcess: lambda n: 2 ** n,
    CoordinatedProcess: lambda n: 2 ** n,
}


def rollback_bound(protocol_cls, n: int) -> int:
    """Worst-case rollbacks of one process for a single failure."""
    return _ROLLBACK_BOUNDS.get(protocol_cls, lambda _n: 1)(n)


@dataclass(frozen=True)
class ConformanceSchedule:
    """One seeded workload + failure schedule, same for every protocol."""

    name: str
    seed: int
    crashes: tuple[tuple[float, int, float], ...]  # (time, pid, downtime)
    n: int = 4
    jobs: int = 8
    horizon: float = 130.0

    def crash_plan(self) -> CrashPlan | None:
        if not self.crashes:
            return None
        plan = CrashPlan()
        for time, pid, downtime in self.crashes:
            plan.crash(time, pid, downtime)
        return plan


#: The standard battery: single crashes at different points of the
#: pipeline, hitting different stages.  Concurrent crashes are deliberately
#: absent -- several registered protocols do not claim to tolerate them.
CONFORMANCE_SCHEDULES = (
    ConformanceSchedule(
        name="early-crash-mid-stage", seed=3, crashes=((18.0, 1, 2.0),)
    ),
    ConformanceSchedule(
        name="late-crash-final-stage", seed=11, crashes=((42.0, 3, 3.0),)
    ),
    ConformanceSchedule(
        name="double-sequential-crash",
        seed=23,
        crashes=((20.0, 2, 2.0), (55.0, 0, 2.0)),
    ),
)


def build_conformance_spec(
    protocol_cls, schedule: ConformanceSchedule, *, crashes: bool = True
) -> ExperimentSpec:
    """The identical experiment for every protocol.

    FIFO ordering is a valid strengthening of every protocol's published
    assumption (protocols that tolerate arbitrary order also run under
    FIFO), which is what makes the runs comparable.
    """
    return ExperimentSpec(
        n=schedule.n,
        app=PipelineApp(jobs=schedule.jobs),
        protocol=protocol_cls,
        crashes=schedule.crash_plan() if crashes else None,
        seed=schedule.seed,
        horizon=schedule.horizon,
        order=DeliveryOrder.FIFO,
        config=ProtocolConfig(checkpoint_interval=8.0, flush_interval=2.5),
    )


def reference_outputs(schedule: ConformanceSchedule) -> list:
    """Committed outputs of the failure-free run: the ground truth the
    failure runs are compared against.  Under FIFO, PipelineApp's outputs
    are fully determined by the schedule's seed, so the (crash-free)
    Damani-Garg run serves as the reference for every protocol."""
    result = run_experiment(
        build_conformance_spec(DamaniGargProcess, schedule, crashes=False)
    )
    return committed_useful_outputs(result, set())


def committed_useful_outputs(
    result: ExperimentResult, condemned: set
) -> list:
    """Values of environment-visible outputs from non-condemned states,
    in trace order.

    Base protocols emit outputs directly (no ``committed`` field); the
    Damani-Garg output-commit extension additionally records held-back
    outputs with ``committed=False``, which are *not* environment-visible
    and are excluded here.
    """
    return [
        ev.get("value")
        for ev in result.trace.events(EventKind.OUTPUT)
        if ev.get("committed", True) and tuple(ev["uid"]) not in condemned
    ]


def _is_subsequence(candidate: Sequence, reference: Sequence) -> bool:
    it = iter(reference)
    return all(any(item == ref for ref in it) for item in candidate)


def check_conformance(
    result: ExperimentResult,
    protocol_cls,
    schedule: ConformanceSchedule,
    reference: list,
) -> list[str]:
    """Grade one finished run against the shared invariants."""
    violations: list[str] = []

    verdict = check_recovery(result, **grade_kwargs(protocol_cls))
    violations.extend(f"recovery: {v}" for v in verdict.violations)

    gt = verdict.ground_truth
    surviving_orphans = gt.orphans() & gt.surviving_states
    if surviving_orphans:
        violations.append(
            f"orphans: {len(surviving_orphans)} orphan state(s) survived "
            f"recovery: {sorted(surviving_orphans)[:3]}"
        )

    violations.extend(
        check_output_conformance(result, gt.condemned, reference)
    )

    bound = rollback_bound(protocol_cls, schedule.n)
    worst = result.max_rollbacks_for_single_failure()
    if worst > bound:
        violations.append(
            f"rollback-bound: {worst} rollbacks for a single failure "
            f"exceeds {protocol_cls.name}'s bound of {bound}"
        )
    return violations


def check_output_conformance(
    result: ExperimentResult, condemned: set, reference: list
) -> list[str]:
    """Useful committed outputs must be a duplicate-free subsequence of
    the failure-free reference outputs."""
    useful = committed_useful_outputs(result, condemned)
    violations: list[str] = []
    duplicates = [value for value in useful if useful.count(value) > 1]
    if duplicates:
        violations.append(
            f"outputs: duplicate committed output(s) {duplicates[:3]!r}"
        )
    elif not _is_subsequence(useful, reference):
        extra = [value for value in useful if value not in reference]
        violations.append(
            "outputs: committed outputs are not a subsequence of the "
            f"failure-free reference (novel/reordered: {extra[:3]!r})"
        )
    return violations


def run_conformance(
    protocol_cls,
    schedule: ConformanceSchedule,
    *,
    reference: list | None = None,
) -> list[str]:
    """Run one protocol on one schedule; return all violations."""
    if reference is None:
        reference = reference_outputs(schedule)
    result = run_experiment(build_conformance_spec(protocol_cls, schedule))
    return check_conformance(result, protocol_cls, schedule, reference)
