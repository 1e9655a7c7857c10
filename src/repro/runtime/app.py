"""Piecewise-deterministic process and application model.

The paper (Section 3) models a process execution as a sequence of states in
which every transition is caused by a message receive, and everything a
process does between two receives (internal computation, sends) is a
deterministic function of the pre-state and the received message.  This
module provides:

- :class:`Application` -- the deterministic state machine a user writes;
- :class:`AppExecutor` -- runs an application for one process, records
  ground-truth ``STATE``/``DELIVER`` trace events, and supports *replay*
  (re-execution from a checkpoint with sends and outputs suppressed), the
  operation at the heart of log-based recovery;
- :class:`RecoveryProcess` -- the four lifecycle hooks a protocol
  implementation exposes to its runtime environment.

Everything here is engine-agnostic: the executor reads time and the tracer
through a :class:`~repro.runtime.env.RuntimeEnv` and runs identically under
the discrete-event simulator and the live asyncio runtime.
"""

from __future__ import annotations

import copy
from typing import Any, NamedTuple, Protocol

from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind, SimTrace


class SendRecord(NamedTuple):
    """One send issued by the application during a state transition."""

    dst: int
    payload: Any


class OutputRecord(NamedTuple):
    """One value the application emitted to the environment."""

    value: Any


_new_record = tuple.__new__


class ProcessContext:
    """What the application sees while handling a message.

    Deliberately minimal: exposing simulation time or randomness here would
    break piecewise determinism (replay would diverge).  Nondeterministic
    input must be modelled as a message receive, exactly as the paper
    prescribes.
    """

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.n = n
        self.sends: list[SendRecord] = []
        self.outputs: list[OutputRecord] = []

    def send(self, dst: int, payload: Any) -> None:
        """Queue an application message to ``dst``."""
        if not 0 <= dst < self.n:
            raise ValueError(f"destination {dst} out of range 0..{self.n - 1}")
        self.sends.append(_new_record(SendRecord, (dst, payload)))

    def output(self, value: Any) -> None:
        """Emit a value to the environment (subject to output commit)."""
        self.outputs.append(_new_record(OutputRecord, (value,)))


class Application(Protocol):
    """A piecewise-deterministic application.

    Implementations must be deterministic: ``handle`` may depend only on
    ``state`` and ``payload`` (plus the static ``ctx.pid``/``ctx.n``), and
    must treat ``state`` as immutable, returning the successor state.  The
    recovery protocols rely on this to reconstruct states by replaying
    logged messages.
    """

    def initial_state(self, pid: int, n: int) -> Any:
        """The state before any message is received."""
        ...

    def handle(self, state: Any, payload: Any, ctx: ProcessContext) -> Any:
        """Consume one message; return the successor state."""
        ...

    def bootstrap(self, pid: int, n: int, ctx: ProcessContext) -> None:
        """Optional initial sends before any receive (default: none)."""
        ...


#: Ground-truth identity of a state interval: ``(pid, incarnation, serial)``.
#:
#: ``incarnation`` is the environment's durable crash count at the moment the
#: state was first created; ``serial`` increases monotonically within an
#: incarnation and is **never reused**, even across rollbacks -- a replayed
#: transition recreates its *original* uid (taken from the message log),
#: while fresh post-rollback states draw fresh serials.  This is what lets
#: the analysis oracles distinguish an undone state from a replacement that
#: has the same step number, even when a rollback reaches past a restart
#: into an older protocol version.
StateUid = tuple[int, int, int]


class AppExecutor:
    """Drives one process's application, with replay support.

    The executor is substrate code shared by every recovery protocol, so the
    ``DELIVER`` trace events it records are trustworthy ground truth for the
    analysis oracles.  Time, tracer and trace are read through ``env``, a
    :class:`~repro.runtime.env.RuntimeEnv`.
    """

    def __init__(self, app: Application, pid: int, n: int, env: Any) -> None:
        self.app = app
        self.pid = pid
        self.n = n
        self.env = env
        self.trace: SimTrace | None = env.trace
        self.state: Any = app.initial_state(pid, n)
        self.epoch = 0               # protocol-semantic version, for display
        self.step = 0
        self._mint_tag = 0           # incarnation tag for fresh uids
        self._serial = 0             # monotone within incarnation
        self.current_uid: StateUid = (pid, 0, 0)
        # Optional per-state application-state recording, used by the
        # offline predicate-detection utilities.  Application states are
        # immutable by contract, so references are safe to keep.
        self.record_states = False
        self.state_by_uid: dict[StateUid, Any] = {
            self.current_uid: self.state
        }

    def bootstrap(self) -> ProcessContext:
        """Run the application's initial sends (live only, never replayed
        through this path -- protocols checkpoint the post-bootstrap state)."""
        ctx = ProcessContext(self.pid, self.n)
        self.app.bootstrap(self.pid, self.n, ctx)
        return ctx

    def execute(
        self,
        payload: Any,
        *,
        msg_id: int,
        replay: bool = False,
        uid: StateUid | None = None,
    ) -> ProcessContext:
        """Apply one message to the application state.

        Live execution mints a fresh state uid; replay must pass the
        original uid (recorded in the message log), because a replayed
        transition recreates the *same* state.  Returns the context holding
        the sends/outputs the handler produced; callers transmit them live
        and discard them during replay (piecewise determinism guarantees the
        replayed copies equal the originals).
        """
        if replay and uid is None:
            raise ValueError("replay requires the original state uid")
        prev_uid = self.current_uid
        ctx = ProcessContext(self.pid, self.n)
        self.state = self.app.handle(self.state, payload, ctx)
        self.step += 1
        if replay:
            self.current_uid = uid  # type: ignore[assignment]
        else:
            self._serial += 1
            self.current_uid = (self.pid, self._mint_tag, self._serial)
        if self.record_states:
            self.state_by_uid[self.current_uid] = self.state
        tracer = self.env.tracer
        if tracer is not None:
            tracer.counter(
                "app.replayed_transitions" if replay
                else "app.live_transitions"
            )
        if self.trace is not None:
            self.trace.record(
                self.env.now,
                EventKind.DELIVER,
                self.pid,
                msg_id=msg_id,
                uid=self.current_uid,
                prev_uid=prev_uid,
                replay=replay,
            )
        return ctx

    def snapshot(self) -> dict[str, Any]:
        """Capture executor state for a checkpoint."""
        return {
            "state": copy.deepcopy(self.state),
            "epoch": self.epoch,
            "step": self.step,
            "uid": self.current_uid,
        }

    def restore(self, snap: dict[str, Any]) -> None:
        """Reset to a snapshot.  The serial counter is deliberately *not*
        restored: fresh states after a rollback must not reuse the uids of
        the states they replace."""
        self.state = copy.deepcopy(snap["state"])
        self.step = snap["step"]
        self.epoch = snap["epoch"]
        self.current_uid = snap["uid"]

    def begin_incarnation(self, mint_tag: int, epoch: int) -> StateUid:
        """Start a new incarnation after a failure (restart).

        ``mint_tag`` must be durable and monotone across crashes (the
        environment's crash count); ``epoch`` is the protocol's new version
        number, kept for display.  Mints the fresh post-recovery state (the
        paper's ``r10``); returns the uid of the restored state it follows.
        """
        prev = self.current_uid
        self.epoch = epoch
        self._mint_tag = mint_tag
        self._serial = 0
        self.current_uid = (self.pid, mint_tag, 0)
        return prev

    def new_recovery_state(self) -> StateUid:
        """Mint the fresh post-rollback state (the paper's ``r20``).

        Returns the previous (restored) uid.
        """
        prev = self.current_uid
        self._serial += 1
        self.current_uid = (self.pid, self._mint_tag, self._serial)
        return prev


class RecoveryProcess(Protocol):
    """What a protocol implementation plugs into a runtime environment."""

    def on_start(self) -> None: ...

    def on_network_message(self, msg: NetworkMessage) -> None: ...

    def on_crash(self) -> None: ...

    def on_restart(self) -> None: ...
