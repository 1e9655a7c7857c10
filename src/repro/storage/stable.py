"""Per-process stable storage.

A :class:`StableStorage` object survives simulated crashes by construction:
the protocol clears only its *volatile* members on failure.  It aggregates
the checkpoint store, the message log, a synchronously-written token log
(the paper logs every received token synchronously so a crash cannot forget
one), and a small key-value area for durable scalars such as the version
number.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.storage.checkpoint import CheckpointStore
from repro.storage.intents import AUDIT_TAIL, CrashPointReached, IntentRecord
from repro.storage.log import MessageLog


class StableStorage:
    """Everything process ``pid`` keeps on disk."""

    #: File-backed storage fires armed crash points from inside its
    #: persist (after the atomic file write); in-memory storage fires
    #: them at the intent transition itself, which models the same
    #: on-disk partial image (see :mod:`repro.storage.intents`).
    _fires_on_persist = False

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.checkpoints = CheckpointStore()
        self.log = MessageLog()
        self._tokens: list[Any] = []
        self._token_keys: set[Any] = set()
        self._kv: dict[str, Any] = {}
        self.sync_writes = 0
        self.lazy_writes = 0
        self.token_log_dedups = 0
        self._active_intent: IntentRecord | None = None
        self._intent_audit: list[IntentRecord] = []
        self._intent_next_id = 0
        self._commit_pending: IntentRecord | None = None
        self._armed_crash_points: dict[str, dict[str, Any]] = {}
        self.intents_begun = 0
        self.intents_committed = 0
        self.intents_aborted = 0

    # ------------------------------------------------------------------
    # Token log (synchronous)
    # ------------------------------------------------------------------
    def log_token(self, token: Any, *, dedupe_key: Any = None) -> bool:
        """Synchronously persist a received token (paper Section 6.3).

        With ``dedupe_key`` (e.g. ``(origin, version)``), a token whose
        key is already logged is skipped: tokens are final per version,
        so the retained copy is byte-identical and the skip saves both
        the synchronous write and unbounded token-log growth under
        retransmitted/duplicated tokens -- the log stays O(n·f).
        Returns whether an entry was actually appended.
        """
        if dedupe_key is not None:
            if dedupe_key in self._token_keys:
                self.token_log_dedups += 1
                return False
            self._token_keys.add(dedupe_key)
        self._tokens.append(token)
        self.sync_writes += 1
        return True

    @property
    def tokens(self) -> list[Any]:
        return list(self._tokens)

    # ------------------------------------------------------------------
    # Durable scalars
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self._kv[key] = value
        self.sync_writes += 1

    def put_lazy(self, key: str, value: Any) -> None:
        """Buffered durable write: the value becomes durable at the next
        synchronous barrier (any :meth:`put`, token log, checkpoint or
        log mutation) or flush window, whichever comes first.  In-memory
        storage has no window, so this is :meth:`put` minus the
        synchronous-write accounting."""
        self._kv[key] = value
        self.lazy_writes += 1

    def get(self, key: str, default: Any = None) -> Any:
        return self._kv.get(key, default)

    # ------------------------------------------------------------------
    # Write-ahead intents (see repro.storage.intents)
    # ------------------------------------------------------------------
    def begin_intent(self, kind: str, **payload: Any) -> IntentRecord | None:
        """Open a write-ahead intent for a multi-step durable transition.

        Memory-only: the record becomes durable by riding the *next*
        step's own persist, so a clean image never pays an extra write.
        Returns ``None`` when another intent is already active -- a
        nested transition (e.g. the log flush inside a checkpoint) rides
        under the outer intent, and the ``None``-tolerant
        :meth:`advance_intent` / :meth:`commit_intent` make the inner
        call sites unconditional.
        """
        if self._active_intent is not None:
            return None
        record = IntentRecord(self._intent_next_id, kind, payload=payload)
        self._intent_next_id += 1
        self._active_intent = record
        self._commit_pending = None
        self.intents_begun += 1
        return record

    def advance_intent(self, intent: IntentRecord | None, step: str) -> None:
        """Declare the next durable step *before* performing it, so the
        step's persist records which transition was in flight."""
        if intent is None:
            return
        if self._armed_crash_points and not self._fires_on_persist:
            self._fire_crash_point(f"{intent.kind}:{intent.step}")
        intent.step = step

    def commit_intent(self, intent: IntentRecord | None) -> None:
        """Retire a completed intent.  Memory-only: the transition's
        final mutation persists the intent-free image, making "committed"
        durable with no extra write."""
        if intent is None:
            return
        if self._armed_crash_points and not self._fires_on_persist:
            self._fire_crash_point(f"{intent.kind}:{intent.step}")
        intent.status = "committed"
        self.intents_committed += 1
        self._retire(intent)
        self._commit_pending = intent

    def abort_intent(
        self, intent: IntentRecord | None, reason: str = ""
    ) -> None:
        if intent is None:
            return
        intent.status = "aborted"
        if reason:
            intent.payload.setdefault("abort_reason", reason)
        self.intents_aborted += 1
        self._retire(intent)

    def _retire(self, intent: IntentRecord) -> None:
        if self._active_intent is intent:
            self._active_intent = None
        self._intent_audit.append(intent)
        del self._intent_audit[:-AUDIT_TAIL]

    def active_intent(self) -> IntentRecord | None:
        return self._active_intent

    def intent_audit(self) -> list[IntentRecord]:
        return list(self._intent_audit)

    # ------------------------------------------------------------------
    # Crash points (fault injection for the crash-window test matrix)
    # ------------------------------------------------------------------
    def arm_crash_point(
        self,
        point: str,
        *,
        downtime: float = 1.0,
        action: Callable[[str], None] | None = None,
    ) -> None:
        """Arm ``"<kind>:<step>"`` to fire once when that durable step
        lands.  The default action raises :class:`CrashPointReached`
        (the simulator converts it into a crash + scheduled restart);
        the live node installs a self-SIGKILL action instead."""
        self._armed_crash_points[point] = {
            "downtime": downtime,
            "action": action,
        }

    def armed_crash_points(self) -> set[str]:
        return set(self._armed_crash_points)

    def _fire_crash_point(self, point: str) -> None:
        armed = self._armed_crash_points.pop(point, None)
        if armed is None:
            return
        action = armed["action"]
        if action is not None:
            action(point)
            return
        raise CrashPointReached(point, armed["downtime"])

    # ------------------------------------------------------------------
    # Failure hook
    # ------------------------------------------------------------------
    def on_crash(self) -> int:
        """Apply crash semantics: only the volatile log buffer is lost."""
        return self.log.on_crash()
