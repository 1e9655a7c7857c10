"""The engine-neutral wire envelope.

A protocol sees the same :class:`NetworkMessage` whether the payload
travelled through the discrete-event :class:`~repro.sim.network.Network`
or over a real TCP connection in :mod:`repro.live`: ``msg_id`` is unique
per run, ``kind`` separates application traffic from recovery control
traffic, and ``send_time`` is in the sending environment's clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class NetworkMessage:
    """A message in flight.

    ``kind`` distinguishes application messages from recovery tokens and
    other control traffic; ordering disciplines apply uniformly, but the
    metrics layer accounts for them separately.  A dataclass because the
    live codecs encode it by its fields; slotted because one is built per
    send.
    """

    msg_id: int
    src: int
    dst: int
    kind: str            # "app" | "token" | "control"
    payload: Any
    send_time: float
    latency_override: float | None = None
