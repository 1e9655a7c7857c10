"""Ground-truth extended happen-before, lost states, and orphan states.

Everything here is computed from the substrate-written
:class:`~repro.runtime.trace.SimTrace` alone -- never from protocol data
structures -- so it can judge any protocol, including a buggy one.

The reconstruction walks the trace in order, maintaining per-process state
*chains*:

- a live ``DELIVER`` appends the newly created state;
- a ``RESTORE`` (which the protocols record *before* replaying) pops the
  chain back to the restored checkpoint's state, tentatively marking the
  popped states undone with the restore's reason (``"restart"`` -> lost,
  ``"rollback"`` -> rolled back);
- replayed ``DELIVER`` events re-append their original uids, *rescuing*
  them from the undone set (a replayed state was recreated, hence neither
  lost nor undone);
- ``RESTART`` / ``ROLLBACK`` events append the fresh post-recovery state
  and contribute the local edge from the restored state (the paper's
  ``s11 -> r10`` and ``s21 -> r20`` edges).

After the walk:

- **lost(s)** holds iff ``s`` was popped by a restart-restore and never
  replayed -- exactly the paper's definition (a state of the failed version
  executed after the restored state);
- **orphan(s)** holds iff some lost state of *another* process reaches
  ``s`` through the happen-before edges -- again the paper's definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from repro.runtime.trace import EventKind, SimTrace

StateUid = tuple[int, int, int]
Edge = tuple[StateUid, StateUid]


@dataclass
class GroundTruth:
    """The reconstructed truth about one finished run."""

    n: int
    states: set[StateUid] = field(default_factory=set)
    local_edges: set[Edge] = field(default_factory=set)
    message_edges: set[Edge] = field(default_factory=set)
    lost: set[StateUid] = field(default_factory=set)
    rolled_back: set[StateUid] = field(default_factory=set)
    #: states minted by recovery itself (the paper's r10/r20): they perform
    #: no computation and send no messages
    recovery_states: set[StateUid] = field(default_factory=set)
    #: recovery states later undone by a further restore; harmless (no
    #: computation is lost), tracked separately from lost/rolled_back
    superseded: set[StateUid] = field(default_factory=set)
    #: final surviving chain of each process, oldest state first
    surviving: dict[int, list[StateUid]] = field(default_factory=dict)
    #: msg_id -> (sender state uid, destination pid)
    send_info: dict[int, tuple[StateUid, int]] = field(default_factory=dict)
    #: msg_id -> uids of states its deliveries created
    delivery_states: dict[int, set[StateUid]] = field(default_factory=dict)
    #: msg_ids discarded with reason "obsolete"
    obsolete_discards: set[int] = field(default_factory=set)
    #: the states in the order the trace first created them
    order: list[StateUid] = field(default_factory=list)

    @property
    def edges(self) -> set[Edge]:
        return self.local_edges | self.message_edges

    @property
    def surviving_states(self) -> set[StateUid]:
        return {uid for chain in self.surviving.values() for uid in chain}

    def undone(self) -> set[StateUid]:
        return self.lost | self.rolled_back | self.superseded

    def useful(self) -> set[StateUid]:
        """The paper's useful states: neither lost nor orphan (nor a
        recovery marker that a later recovery superseded)."""
        return self.states - self.lost - self.orphans() - self.superseded

    # ------------------------------------------------------------------
    # Reachability / orphans.  A ground truth is finished once built: the
    # cached properties are computed on first use; treat them as read-only.
    # ------------------------------------------------------------------
    def successors(self) -> dict[StateUid, list[StateUid]]:
        adj: dict[StateUid, list[StateUid]] = {}
        for src, dst in self.edges:
            adj.setdefault(src, []).append(dst)
        return adj

    @cached_property
    def bits(self) -> dict[StateUid, int]:
        """uid -> its one-bit mask.  Bit numbers follow creation order;
        states ``order`` does not list (a hand-built graph) come last."""
        known = dict.fromkeys(self.order)
        rest = sorted(self.states.union(*self.edges).difference(known))
        return {uid: 1 << at for at, uid in enumerate([*known, *rest])}

    @cached_property
    def reach(self) -> dict[StateUid, int]:
        """uid -> mask of the states it happens before.

        A state reaches its successors and whatever they reach, so one
        pass in reverse creation order settles a trace whose edges all
        point forward; repeating until no mask changes also settles
        backward edges and cycles (a state on a cycle reaches itself)."""
        bits, adj = self.bits, self.successors()
        reach = dict.fromkeys(bits, 0)
        backwards = [(uid, adj[uid]) for uid in reversed(bits) if uid in adj]
        changed = True
        while changed:
            changed = False
            for uid, nexts in backwards:
                mask = reach[uid]
                for nxt in nexts:
                    mask |= bits[nxt] | reach[nxt]
                if mask != reach[uid]:
                    reach[uid] = mask
                    changed = True
        return reach

    def members(self, mask: int) -> list[StateUid]:
        """The states whose bits are set in ``mask``, in bit order."""
        return list(compress(self.bits, map(int, f"{mask:b}"[::-1])))

    def reachable_from(self, sources: set[StateUid]) -> set[StateUid]:
        """All states reachable from ``sources`` via happen-before edges
        (excluding the sources themselves unless re-reached)."""
        mask = 0
        for uid in sources:
            mask |= self.reach.get(uid, 0)
        # a failure-free run has no lost state and never builds the masks
        return set(self.members(mask)) if mask else set()

    def orphans(self) -> set[StateUid]:
        """Paper Section 5: states of *other* processes that causally depend
        on a lost state.  (Same-process successors of a lost state are
        themselves lost, so subtracting ``lost`` leaves exactly the orphans.)
        """
        return self.condemned - self.lost

    @cached_property
    def condemned(self) -> set[StateUid]:
        """Lost or orphan: what no correct recovery may keep or commit."""
        return self.lost | self.reachable_from(self.lost)

    def happens_before(self, a: StateUid, b: StateUid) -> bool:
        """Extended happen-before ``a -> b`` (transitive, irreflexive)."""
        return bool(self.reach.get(a, 0) & self.bits.get(b, 0))


def build_ground_truth(trace: SimTrace, n: int) -> GroundTruth:
    """Replay the trace and reconstruct the ground truth (module docstring)."""
    gt = GroundTruth(n=n)
    chains: dict[int, list[StateUid]] = {
        pid: [(pid, 0, 0)] for pid in range(n)
    }
    gt.order = [(pid, 0, 0) for pid in range(n)]
    gt.states.update(gt.order)
    # uid -> undo reason, for states popped and not (yet) replayed
    undone: dict[StateUid, str] = {}

    for _, _, kind, pid, fields in trace:
        if kind is EventKind.SEND:
            gt.send_info[fields["msg_id"]] = (fields["uid"], fields["dst"])
        elif kind is EventKind.DELIVER:
            uid: StateUid = fields["uid"]
            if uid not in gt.states:        # a replay recreates, not creates
                gt.states.add(uid)
                gt.order.append(uid)
            gt.local_edges.add((fields["prev_uid"], uid))
            msg_id = fields["msg_id"]
            gt.delivery_states.setdefault(msg_id, set()).add(uid)
            sender = gt.send_info.get(msg_id)
            if sender is not None:
                gt.message_edges.add((sender[0], uid))
            chains[pid].append(uid)
            undone.pop(uid, None)   # recreated => rescued
        elif kind is EventKind.RESTORE:
            ckpt_uid: StateUid = fields["ckpt_uid"]
            chain = chains[pid]
            reason = fields["reason"]
            while chain and chain[-1] != ckpt_uid:
                undone[chain.pop()] = reason
            if not chain:
                raise ValueError(
                    f"RESTORE to unknown state {ckpt_uid} on P{pid}"
                )
        elif kind in (EventKind.RESTART, EventKind.ROLLBACK):
            new_uid: StateUid = fields["new_uid"]
            gt.states.add(new_uid)
            gt.order.append(new_uid)
            gt.recovery_states.add(new_uid)
            gt.local_edges.add((fields["restored_uid"], new_uid))
            chains[pid].append(new_uid)
        elif kind is EventKind.DISCARD:
            if fields.get("reason") == "obsolete":
                gt.obsolete_discards.add(fields["msg_id"])

    for uid, reason in undone.items():
        if uid in gt.recovery_states:
            # A recovery marker (r10/r20) replaced by a later recovery.  It
            # never computed or sent anything, so nothing depends on it and
            # it is neither "lost computation" nor an orphan rollback.
            gt.superseded.add(uid)
        elif reason == "restart":
            gt.lost.add(uid)
        else:
            gt.rolled_back.add(uid)
    gt.surviving = chains
    return gt
