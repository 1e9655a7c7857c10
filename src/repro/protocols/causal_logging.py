"""Causal message logging (paper refs [1, 6]; Alvisi-Marzullo [2]).

The third point of the message-logging design space the paper's related
work surveys.  Where pessimistic logging pays a synchronous write per
receive and optimistic logging pays orphans, causal logging pays
*piggyback*: every message carries the **determinants** -- ``(dest, rsn,
src, ssn, payload)`` records -- of all receive events in the sender's
causal past that are not yet known stable.  Anything a surviving state
depends on is therefore recorded somewhere among the survivors, so:

- **no orphans, ever** ("nonblocking and orphan-free", paper §2): a crash
  loses only receives nobody depended on;
- **no synchronous writes** during failure-free operation;
- **recovery needs the peers** ("synchronization is required during
  recovery"): the restarted process broadcasts a request and replays the
  determinants its peers return, in rsn order, recreating its lost states
  exactly.

Determinants are pruned as their receiver's stable-log watermark (learned
from that receiver's own messages) passes them, so the piggyback tracks
the volume of *unstable* receives -- the overhead quantity the taxonomy
benchmark measures against O(n) clocks and O(1) RSNs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.protocols.base import BaseRecoveryProcess
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind


@dataclass(frozen=True)
class Determinant:
    """Everything needed to replay one receive event."""

    dest: int
    rsn: int
    src: int
    ssn: int
    src_incarnation: int
    payload: Any
    msg_id: int


@dataclass(frozen=True)
class CLMessage:
    payload: Any
    ssn: int
    incarnation: int
    #: unstable determinants of the sender's causal past
    determinants: tuple[Determinant, ...]
    #: sender's own stable-log watermark (its receives below this are safe)
    stable_rsn: int


@dataclass(frozen=True)
class CLRecover:
    requester: int
    incarnation: int            # the incarnation that just ended
    rsn_floor: int


@dataclass(frozen=True)
class CLDeterminants:
    responder: int
    determinants: tuple[Determinant, ...]


@dataclass(frozen=True)
class CLAnnounce:
    """End of recovery: sends of the dead incarnation with ``ssn >=
    ssn_cutoff`` came from states that were not recreated -- discard them."""

    origin: int
    incarnation: int
    ssn_cutoff: int


class CausalLoggingProcess(BaseRecoveryProcess):
    """One causally-logging process."""

    #: Overlapping (non-simultaneous) failures are handled; *simultaneous*
    #: failures can race determinant propagation (full tolerance needs the
    #: f-replication discipline of family-based logging, out of scope for
    #: this context baseline).
    name = "Causal logging"
    requires_fifo = False
    asynchronous_recovery = False
    tolerates_concurrent_failures = False

    def __init__(self, env, app, config=None) -> None:
        super().__init__(env, app, config)
        self._rsn = 0
        self._ssn = 0
        self._incarnation = 0
        #: (dest, rsn) -> Determinant; everything unstable we know about
        self._determinants: dict[tuple[int, int], Determinant] = {}
        #: pid -> that process's announced stable watermark
        self._watermarks: dict[int, int] = {}
        self._delivered: set[tuple[int, int]] = set()   # (src, ssn)
        #: (pid, incarnation) -> ssn cutoff, from CLAnnounce broadcasts
        self._ssn_cutoffs: dict[tuple[int, int], int] = {}
        #: (pid, incarnation) incarnations known ended but not yet announced
        #: (between CLRecover and CLAnnounce): their messages are held
        self._ending: set[tuple[int, int]] = set()
        # Recovery session:
        self._recovering = False
        self._responses: dict[int, CLDeterminants] = {}
        self._buffered: list[NetworkMessage] = []
        self._post_replay = 0    # entries the restart replayed locally

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_network_message(self, msg: NetworkMessage) -> None:
        payload = msg.payload
        if isinstance(payload, CLRecover):
            self._on_recover_request(payload)
        elif isinstance(payload, CLAnnounce):
            self._on_announce(payload)
        elif isinstance(payload, CLMessage):
            self._receive_app(msg)
        elif isinstance(payload, CLDeterminants):
            if self._recovering:   # else a stale finished session's
                self._on_determinants(payload)
        else:
            raise ValueError(f"unexpected payload {payload!r}")

    def on_crash(self) -> None:
        super().on_crash()
        self._determinants.clear()
        self._watermarks.clear()
        self._delivered.clear()
        self._ending.clear()
        self._recovering = False
        self._responses.clear()
        self._buffered.clear()

    # ------------------------------------------------------------------
    # Failure-free path
    # ------------------------------------------------------------------
    def _prune(self) -> None:
        """Drop determinants whose receiver has made them stable."""
        self._determinants = {
            key: det
            for key, det in self._determinants.items()
            if det.rsn >= self._watermarks.get(det.dest, 0)
        }

    def _receive_app(self, msg: NetworkMessage) -> None:
        if self._recovering:
            self._buffered.append(msg)   # taken once recovery completes
            return
        envelope: CLMessage = msg.payload
        if (msg.src, envelope.ssn) in self._delivered:
            self._discard(msg, "duplicate")
            return
        # Stale-incarnation filter (the Manetho-style coordination that
        # keeps causal logging orphan-free): a message from an ended
        # incarnation is valid only if its send was recreated by the
        # recovery (ssn below the announced cutoff).
        key = (msg.src, envelope.incarnation)
        cutoff = self._ssn_cutoffs.get(key)
        if cutoff is not None and envelope.ssn >= cutoff:
            self._discard(msg, "obsolete")
            return
        if key in self._ending:
            # Incarnation ended but its cutoff is not known yet: hold.
            self._postpone(msg, [key])
            return
        # Absorb the sender's knowledge before creating our own receive.
        for det in envelope.determinants:
            self._determinants.setdefault((det.dest, det.rsn), det)
        self._watermarks[msg.src] = max(
            self._watermarks.get(msg.src, 0), envelope.stable_rsn
        )
        self._deliver(
            payload=envelope.payload,
            src=msg.src,
            ssn=envelope.ssn,
            src_incarnation=envelope.incarnation,
            msg_id=msg.msg_id,
        )
        self._prune()

    def _deliver(self, *, payload, src, ssn, src_incarnation, msg_id) -> None:
        rsn = self._rsn
        self._rsn += 1
        self._delivered.add((src, ssn))
        determinant = Determinant(
            dest=self.pid, rsn=rsn, src=src, ssn=ssn,
            src_incarnation=src_incarnation,
            payload=payload, msg_id=msg_id,
        )
        self._determinants[(self.pid, rsn)] = determinant
        self.storage.log.append(msg_id, src, payload, meta=determinant)
        self.stats.app_delivered += 1
        self._finish_step(self.executor.execute(payload, msg_id=msg_id))

    def _send_app(self, dst: int, payload: Any, *, transmit: bool) -> None:
        """Sends regenerated by replay go out again (``transmit`` is
        ignored) with their ORIGINAL ssns -- the restored counter and
        deterministic replay reproduce them -- so receivers deduplicate
        exact copies, and sends that never left before the crash go out
        here for the first time."""
        self._prune()
        determinants = tuple(
            self._determinants[key] for key in sorted(self._determinants)
        )
        envelope = CLMessage(
            payload=payload,
            ssn=self._ssn,
            incarnation=self._incarnation,
            determinants=determinants,
            stable_rsn=self.storage.log.stable_length,
        )
        self._ssn += 1
        sent = self.env.send(dst, envelope, kind="app")
        self.stats.app_sent += 1
        # Overhead accounting: each determinant is the causal-logging
        # analogue of a clock entry.
        self.stats.piggyback_entries += 1 + len(determinants)
        self.stats.piggyback_bits += 64 + len(determinants) * 160
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.SEND, self.pid,
                msg_id=sent.msg_id, dst=dst,
                uid=self.executor.current_uid,
                dedup=(self.pid, envelope.ssn),
            )

    # ------------------------------------------------------------------
    # Recovery (needs the peers)
    # ------------------------------------------------------------------
    def on_restart(self) -> None:
        self.stats.restarts += 1
        ckpt = self.storage.checkpoints.latest()
        self._restore(ckpt, "restart")
        # Ended-incarnation knowledge is durable (synchronously logged).
        for logged in self.storage.tokens:
            if isinstance(logged, CLAnnounce):
                self._ssn_cutoffs[(logged.origin, logged.incarnation)] = (
                    logged.ssn_cutoff
                )
            elif isinstance(logged, CLRecover):
                key = (logged.requester, logged.incarnation)
                if key not in self._ssn_cutoffs:
                    self._ending.add(key)
        self._post_replay = self._replay_log(ckpt.log_position)
        if self.n == 1:
            self._finish_recovery(self._post_replay, ())
            return
        self._recovering = True
        self._responses = {}
        self.env.broadcast(
            CLRecover(
                requester=self.pid,
                incarnation=self._incarnation,
                rsn_floor=self._rsn,
            ),
            kind="control",
        )
        self.stats.control_sent += self.n - 1

    def _replay_entry(self, entry) -> None:
        """Replay one logged/collected receive, reconstructing its uid.

        Causal logging never rolls back, so original state uids since any
        checkpoint are consecutive serials: the state this replay recreates
        is exactly the successor of the executor's current uid.
        """
        det: Determinant = entry.meta
        current = self.executor.current_uid
        original_uid = (self.pid, current[1], current[2] + 1)
        self._rsn = det.rsn + 1
        self._delivered.add((det.src, det.ssn))
        self._determinants[(self.pid, det.rsn)] = det
        self._replay(det.payload, det.msg_id, original_uid)

    def _on_recover_request(self, request: CLRecover) -> None:
        key = (request.requester, request.incarnation)
        if key not in self._ssn_cutoffs:
            # That incarnation ended; hold its in-flight messages until
            # the cutoff announce says which of them were recreated.
            self.storage.log_token(request)
            self._ending.add(key)
        mine = tuple(
            det
            for (dest, rsn), det in sorted(self._determinants.items())
            if dest == request.requester and rsn >= request.rsn_floor
        )
        self.env.send(
            request.requester,
            CLDeterminants(responder=self.pid, determinants=mine),
            kind="control",
        )
        self.stats.control_sent += 1

    def _on_announce(self, announce: CLAnnounce) -> None:
        self.stats.tokens_received += 1
        self.storage.log_token(announce)
        key = (announce.origin, announce.incarnation)
        self._ssn_cutoffs[key] = announce.ssn_cutoff
        self._ending.discard(key)
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.TOKEN_DELIVER, self.pid,
                origin=announce.origin, version=announce.incarnation,
                timestamp=announce.ssn_cutoff,
            )
        self._release_held()
        # The announce may be exactly what our own recovery was waiting on.
        self._try_complete()

    def _on_determinants(self, response: CLDeterminants) -> None:
        self._responses[response.responder] = response
        self._try_complete()

    def _try_complete(self) -> None:
        if not self._recovering or len(self._responses) < self.n - 1:
            return
        collected: dict[int, Determinant] = {}
        for item in self._responses.values():
            for det in item.determinants:
                collected.setdefault(det.rsn, det)
        # Determinants whose sender incarnation is still in recovery limbo
        # are replayed *optimistically*: determinant piggybacking is
        # causally closed (whoever carried this determinant also carried,
        # or has stably logged, the determinants of its whole unstable
        # causal past), so the sender's own concurrent recovery will
        # recreate the send.  Only a determinant already *excluded* by an
        # announced cutoff is definitively unbacked and truncates the
        # chain.
        # Replay the gap-free prefix in rsn order: these recreate the lost
        # states exactly.  Anything after a gap becomes a fresh delivery
        # (nobody can have depended on the gap, or its determinant would
        # have been piggybacked along that dependence).  A determinant
        # whose sender incarnation is dead with the send beyond (or not
        # yet covered by) the announced cutoff must not be replayed at all
        # -- it would recreate a dependence on an unrecreated state; it is
        # dropped, which is safe (nothing surviving can depend on it for
        # the same piggybacking reason) if occasionally lossy under
        # overlapping failures.
        expected = self._rsn
        replayed = self._post_replay
        fresh: list[Determinant] = []
        for rsn in sorted(collected):
            det = collected[rsn]
            if (det.src, det.ssn) in self._delivered:
                continue
            if self._det_is_stale(det):
                expected = None   # chain broken; the rest is fresh at best
                continue
            if det.rsn == expected and not fresh:
                self._replay_entry(self.storage.log.append(
                    det.msg_id, det.src, det.payload, meta=det
                ))
                replayed += 1
                expected += 1
            else:
                fresh.append(det)
        self._finish_recovery(replayed, fresh)

    def _det_is_stale(self, det: Determinant) -> bool:
        """Was the send behind this determinant definitively NOT recreated
        by its own sender's recovery?"""
        key = (det.src, det.src_incarnation)
        cutoff = self._ssn_cutoffs.get(key)
        return cutoff is not None and det.ssn >= cutoff

    def _finish_recovery(self, replayed: int, fresh) -> None:
        # Everything the recovered lineage ever sent has ssn < self._ssn;
        # later sends of the dead incarnation came from unrecreated states.
        announce = CLAnnounce(
            origin=self.pid,
            incarnation=self._incarnation,
            ssn_cutoff=self._ssn,
        )
        self.storage.log_token(announce)
        self._ssn_cutoffs[(self.pid, self._incarnation)] = self._ssn
        self._incarnation = self.env.crash_count
        if self.n > 1:
            self.env.broadcast(announce, kind="token")
            self.stats.tokens_sent += self.n - 1
            self.stats.control_sent += self.n - 1
        if self.trace is not None:
            self.trace.record(
                self.env.now, EventKind.TOKEN_SEND, self.pid,
                version=announce.incarnation,
                timestamp=announce.ssn_cutoff,
            )
        self._restarted(self.env.crash_count, replayed)
        self._recovering = False
        self._responses = {}
        self.take_checkpoint()
        for det in fresh:
            if (det.src, det.ssn) in self._delivered:
                continue
            if self._det_is_stale(det):
                continue
            self._deliver(
                payload=det.payload, src=det.src, ssn=det.ssn,
                src_incarnation=det.src_incarnation,
                msg_id=det.msg_id,
            )
        buffered, self._buffered = self._buffered, []
        for msg in buffered:
            self.on_network_message(msg)

    # ------------------------------------------------------------------
    def checkpoint_extras(self) -> dict[str, Any]:
        return {
            "rsn": self._rsn,
            "ssn": self._ssn,
            "incarnation": self._incarnation,
            "delivered": set(self._delivered),
            "determinants": dict(self._determinants),
            "watermarks": dict(self._watermarks),
            "ssn_cutoffs": dict(self._ssn_cutoffs),
        }

    def _restore_checkpoint(self, ckpt) -> None:
        super()._restore_checkpoint(ckpt)
        self._rsn = ckpt.extras["rsn"]
        self._ssn = ckpt.extras["ssn"]
        self._incarnation = ckpt.extras["incarnation"]
        self._delivered = set(ckpt.extras["delivered"])
        self._determinants = dict(ckpt.extras["determinants"])
        self._watermarks = dict(ckpt.extras["watermarks"])
        self._ssn_cutoffs = dict(ckpt.extras["ssn_cutoffs"])

    def piggyback_entry_count(self) -> int:
        return 1 + len(self._determinants)
