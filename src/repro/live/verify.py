"""Oracles for live runs.

A live run has no deterministic reference execution to diff against, but
the pipeline workload has a *closed-form* one: job ``j``'s final value is
a pure function of ``j`` and the stage count (see
:func:`pipeline_reference`).  That gives the same three checks the
simulator's conformance suite applies, from the merged trace alone:

- **recovery**: every supervisor-recorded crash is followed by that
  process's RESTART (with its recovery-token broadcast);
- **no orphan output**: every committed output value matches the
  closed-form reference -- an output produced by an orphan lineage would
  carry a value no failure-free run can produce;
- **completeness**: every job's output was committed at the final stage.

:func:`recovery_timeline` is not an oracle but a reading aid: from the
same merged trace, where each crash's time went between the SIGKILL and
the last survivor's link back to the victim.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.apps.applications import mix64
from repro.runtime.trace import EventKind, SimTrace


def pipeline_reference(n: int, jobs: int) -> dict[int, int]:
    """Job id -> final value a correct run commits at stage ``n - 1``."""
    expected = {}
    for job in range(jobs):
        value = mix64(job, 0)
        for stage in range(1, n):
            value = mix64(value, stage + 1)
        expected[job] = value
    return expected


@dataclass
class LiveVerdict:
    """Outcome of :func:`check_live_run`."""

    ok: bool
    failures: list[str] = field(default_factory=list)
    crashes: int = 0
    restarts: int = 0
    tokens_sent: int = 0
    outputs_committed: int = 0
    duplicate_outputs: int = 0
    jobs_expected: int = 0

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status}: {self.crashes} crash(es), {self.restarts} "
            f"restart(s), {self.outputs_committed}/{self.jobs_expected} "
            f"outputs committed ({self.duplicate_outputs} duplicate(s))"
            + ("" if self.ok else "; " + "; ".join(self.failures))
        )


def check_live_run(trace: SimTrace, *, n: int, jobs: int) -> LiveVerdict:
    """Grade one merged live trace against the closed-form reference."""
    failures: list[str] = []

    # --- recovery: each crash of pid is matched by a later restart -----
    crash_events = trace.events(EventKind.CRASH)
    restart_events = trace.events(EventKind.RESTART)
    token_events = trace.events(EventKind.TOKEN_SEND)
    for crash in crash_events:
        recovered = any(
            r.pid == crash.pid and r.time > crash.time
            for r in restart_events
        )
        if not recovered:
            failures.append(
                f"p{crash.pid} crashed at t={crash.time:.3f} and never "
                f"restarted"
            )
        announced = any(
            t.pid == crash.pid and t.time > crash.time
            for t in token_events
        )
        if not announced:
            failures.append(
                f"p{crash.pid} recovered without broadcasting a token"
            )

    # --- post-restart checkpoint: the new incarnation is durable -------
    for restart in restart_events:
        ckpt_after = any(
            c.pid == restart.pid and c.time >= restart.time
            for c in trace.events(EventKind.CHECKPOINT)
        )
        if not ckpt_after:
            failures.append(
                f"p{restart.pid} restarted at t={restart.time:.3f} "
                f"without a post-restart checkpoint"
            )

    # --- outputs vs the closed-form pipeline reference -----------------
    expected = pipeline_reference(n, jobs)
    committed: dict[int, int] = {}
    duplicates = 0
    for event in trace.events(EventKind.OUTPUT):
        value = event.get("value")
        if (
            not isinstance(value, tuple)
            or len(value) != 3
            or value[0] != "done"
        ):
            failures.append(f"malformed output {value!r} at p{event.pid}")
            continue
        _, job, result = value
        if job not in expected:
            failures.append(f"output for unknown job {job!r}")
            continue
        if result != expected[job]:
            # A value no failure-free execution can produce: the output
            # was computed in an orphan lineage that escaped rollback.
            failures.append(
                f"orphan output for job {job}: got {result}, "
                f"expected {expected[job]}"
            )
        if job in committed:
            duplicates += 1
        committed[job] = result
    missing = sorted(set(expected) - set(committed))
    if missing:
        failures.append(
            f"{len(missing)} job(s) never produced output "
            f"(first missing: {missing[:5]})"
        )

    return LiveVerdict(
        ok=not failures,
        failures=failures,
        crashes=len(crash_events),
        restarts=len(restart_events),
        tokens_sent=len(token_events),
        outputs_committed=len(committed),
        duplicate_outputs=duplicates,
        jobs_expected=jobs,
    )


@dataclass(frozen=True)
class RecoveryTimeline:
    """One crash, in env-time seconds; a step the trace lacks is None.

    ``released`` is the supervisor letting the warm standby go (the end
    of the configured downtime), ``restart`` the victim's checkpoint
    RESTORE, ``token`` its recovery-token broadcast, ``peers_done`` the
    last peer's delivery of (or rollback on) that token, and
    ``links_up`` the last survivor's outbound link back to the victim.
    """

    pid: int
    kill: float
    released: float | None = None
    restart: float | None = None
    token: float | None = None
    peers_done: float | None = None
    links_up: float | None = None

    def summary(self) -> str:
        steps = [
            f"{f.name} {getattr(self, f.name) - self.kill:+.3f}s"
            for f in fields(self)[2:]
            if getattr(self, f.name) is not None
        ]
        return " -> ".join([f"p{self.pid} kill t={self.kill:.3f}s"] + steps)


def recovery_timeline(trace: SimTrace) -> list[RecoveryTimeline]:
    """Per supervisor-recorded crash, when each recovery step happened.

    A crash's steps are looked for between it and the same process's next
    crash, so a second kill of one victim reads its own incarnation.
    """
    crashes = trace.events(EventKind.CRASH)
    out = []
    for crash in crashes:
        victim = crash.pid
        until = min(
            (c.time for c in crashes if c.pid == victim and c.time > crash.time),
            default=float("inf"),
        )
        window = [e for e in trace if crash.time <= e.time < until]

        def first(kind: EventKind, **want: object) -> float | None:
            return next(
                (
                    e.time for e in window
                    if e.kind is kind and e.pid == victim
                    and all(e.get(k) == v for k, v in want.items())
                ),
                None,
            )

        version = next(
            (
                e.get("version") for e in window
                if e.kind is EventKind.TOKEN_SEND and e.pid == victim
            ),
            None,
        )
        reactions = [
            e.time for e in window
            if e.kind in (EventKind.TOKEN_DELIVER, EventKind.ROLLBACK)
            and e.get("origin") == victim and e.get("version") == version
        ]
        relinked: dict[int, float] = {}   # survivor -> its first link_up
        for e in window:
            if (
                e.kind is EventKind.CUSTOM
                and e.get("what") == "link_up" and e.get("peer") == victim
            ):
                relinked.setdefault(e.pid, e.time)
        out.append(
            RecoveryTimeline(
                pid=victim,
                kill=crash.time,
                released=first(EventKind.CUSTOM, what="standby_released"),
                restart=first(EventKind.RESTORE, reason="restart"),
                token=first(EventKind.TOKEN_SEND),
                peers_done=max(reactions, default=None),
                links_up=max(relinked.values(), default=None),
            )
        )
    return out
