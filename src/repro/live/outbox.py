"""The transport's unacknowledged sends, per destination link.

An entry leaves the outbox only when its receiver has acknowledged
*processing* it, so whatever is in doubt at a disconnect (or a sender
restart) is retransmitted.  Sequence numbers are per link, start at 1 and
never repeat within one storage lifetime: a re-issued seq would be
swallowed by the receiver's dedup cursor and the message lost for good,
which is why the counter lives -- and becomes durable -- together with
the entries it numbers.

:class:`Outbox` is the plain in-memory structure a storage-less
transport uses; :class:`~repro.live.storage.FileStableStorage` owns a
subclass that journals the adds of each flush window as one pickled
chunk per link, and each ``ack`` as the link's watermark.
"""

from __future__ import annotations

from typing import Any


class Outbox:
    """Per-link FIFO of ``(seq, msg)`` awaiting a cumulative ack."""

    def __init__(self) -> None:
        self._entries: dict[int, list[tuple[int, Any]]] = {}
        self._next_seq: dict[int, int] = {}

    def add(self, dst: int, msg: Any) -> int:
        """Queue ``msg`` for ``dst`` under the link's next seq."""
        seq = self._next_seq.get(dst, 1)
        self._entries.setdefault(dst, []).append((seq, msg))
        self._next_seq[dst] = seq + 1
        return seq

    def ack(self, dst: int, upto: int) -> int:
        """Drop every entry with ``seq <= upto``; returns how many."""
        entries = self._entries.get(dst)
        if not entries:
            return 0
        # Seqs are strictly increasing within a link and acks are
        # cumulative, so the acknowledged entries are a prefix.
        dropped = 0
        while dropped < len(entries) and entries[dropped][0] <= upto:
            dropped += 1
        del entries[:dropped]
        return dropped

    def pending(self, dst: int) -> list[tuple[int, Any]]:
        """The link's unacknowledged entries, oldest first."""
        return self._entries.get(dst, [])

    def next_seq(self, dst: int) -> int:
        return self._next_seq.get(dst, 1)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())
