"""Layer replay: re-drive inputs captured from a run through each
layer's public functions, in the harness process, and time them.

A *capture* is a list of :class:`Sample` -- real messages of the run
with the clocks they carried -- taken from what the run left behind
(the simulator's message logs, a live node's final storage image).  The
same messages are pushed through every layer, so the per-layer costs
describe this workload's traffic, not a synthetic one.

Each timer runs its loop ``ROUNDS`` times and reports the median
round's mean cost per call, so one scheduler hiccup cannot move it.
"""

from __future__ import annotations

import asyncio
import io
import os
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.ftvc import FaultTolerantVectorClock
from repro.core.history import History
from repro.core.recovery import AppEnvelope
from repro.live.env import LiveTrace
from repro.live.framing import OVERHEAD, BufferedFrameReader, frame
from repro.live.storage import FileStableStorage
from repro.live.wire import WireDecoder, WireEncoder
from repro.runtime.message import NetworkMessage
from repro.runtime.trace import EventKind
from repro.storage.intents import heal
from repro.storage.log import MessageLog

from benchmarks.perf.stats import median

ROUNDS = 5
#: Cap on samples pushed through each timer (keeps a traced run short).
MAX_SAMPLES = 4000


@dataclass(frozen=True)
class Sample:
    """One application message of the run."""

    src: int
    dst: int
    envelope: AppEnvelope
    #: the receiver's clock the message was merged into (None when the
    #: capture came from the sending side and it is unknown)
    receiver_clock: FaultTolerantVectorClock | None = None


def samples_from_log(
    pid: int, log: MessageLog, limit: int | None = None
) -> list[Sample]:
    """Samples from what a receiver's message log still holds (entries
    written by ``DamaniGargProcess._deliver``; a garbage-collected
    prefix is gone)."""
    retained_from = log.stable_length - log.retained_stable_entries
    out = []
    before = None            # the receiver's clock ahead of each delivery
    for entry in log.all_entries(retained_from)[:limit]:
        clock, dedup_id, _uid, after = entry.meta
        out.append(
            Sample(
                src=entry.src,
                dst=pid,
                envelope=AppEnvelope(entry.payload, clock, dedup_id),
                receiver_clock=before,
            )
        )
        before = after
    return out


def samples_from_image(pid: int, storage: Any) -> list[Sample]:
    """Samples from a reloaded storage image: the stable message log
    (receiver side) plus the Remark-1 send log kept in the newest
    checkpoint (sender side)."""
    out = samples_from_log(pid, storage.log)
    if len(storage.checkpoints):
        for sent in storage.checkpoints.latest().extras.get("send_log", ()):
            out.append(Sample(src=pid, dst=sent.dst, envelope=sent.envelope))
    return out


def thin(samples: Sequence[Sample], limit: int = MAX_SAMPLES) -> list[Sample]:
    """At most ``limit`` samples, evenly spaced, order kept."""
    if len(samples) <= limit:
        return list(samples)
    stride = len(samples) / limit
    return [samples[int(i * stride)] for i in range(limit)]


def _per_call_us(loop: Callable[[], int]) -> float:
    """Median over ``ROUNDS`` of (round wall time / calls made), in us."""
    costs = []
    for _ in range(ROUNDS):
        start = time.perf_counter_ns()
        calls = loop()
        costs.append((time.perf_counter_ns() - start) / max(1, calls) / 1e3)
    return median(costs)


# ---------------------------------------------------------------------------
# core / storage
# ---------------------------------------------------------------------------
def ftvc_merge_us(samples: Sequence[Sample]) -> float:
    pairs = [
        (
            s.receiver_clock if s.receiver_clock is not None
            else samples[i - 1].envelope.clock,
            s.envelope.clock,
        )
        for i, s in enumerate(samples)
    ]

    def loop() -> int:
        for mine, theirs in pairs:
            mine.merge(theirs)
        return len(pairs)

    return _per_call_us(loop)


def ftvc_delta_roundtrip_us(samples: Sequence[Sample]) -> float:
    clocks = [s.envelope.clock for s in samples]
    from_delta = FaultTolerantVectorClock.from_delta

    def loop() -> int:
        base = clocks[0]
        for clock in clocks[1:]:
            if from_delta(base, clock.diff(base)) != clock:
                raise AssertionError("delta round trip lost a clock entry")
            base = clock
        return len(clocks) - 1

    return _per_call_us(loop)


def history_test_us(samples: Sequence[Sample]) -> float:
    n = len(samples[0].envelope.clock)
    clocks = [s.envelope.clock for s in samples]

    def loop() -> int:
        history = History(samples[0].dst, n)
        for clock in clocks:
            if not history.is_obsolete(clock):
                history.observe_message_clock(clock)
        return len(clocks)

    return _per_call_us(loop)


def log_append_us(samples: Sequence[Sample]) -> float:
    def loop() -> int:
        log = MessageLog()
        for index, s in enumerate(samples):
            log.append(
                index, s.src, s.envelope.payload,
                meta=(s.envelope.clock, s.envelope.dedup_id, None, None),
            )
        return len(samples)

    return _per_call_us(loop)


# ---------------------------------------------------------------------------
# live.wire / live.framing / live.trace
# ---------------------------------------------------------------------------
def _messages(samples: Sequence[Sample]) -> list[NetworkMessage]:
    return [
        NetworkMessage(
            msg_id=index + 1, src=s.src, dst=s.dst, kind="app",
            payload=s.envelope, send_time=0.0,
        )
        for index, s in enumerate(samples)
    ]


def wire_us(samples: Sequence[Sample]) -> tuple[float, float, float]:
    """``(encode_us, decode_us, bytes_per_frame)`` for the binary codec,
    one fresh encoder/decoder pair per round as on a fresh connection."""
    messages = _messages(samples)
    frames: list[bytes] = []

    def encode() -> int:
        encoder = WireEncoder()
        frames[:] = [
            encoder.data_frame(seq, msg) for seq, msg in enumerate(messages)
        ]
        return len(messages)

    def decode() -> int:
        decoder = WireDecoder()
        for data in frames:
            decoder.decode_data(data)
        return len(frames)

    encode_us = _per_call_us(encode)
    decode_us = _per_call_us(decode)
    seq, last = WireDecoder().decode_data(frames[0])
    if seq != 0 or last.payload.dedup_id != samples[0].envelope.dedup_id:
        raise AssertionError("wire round trip changed a message")
    size = sum(len(data) for data in frames) / len(frames)
    return encode_us, decode_us, size


def framing_roundtrip_us(samples: Sequence[Sample]) -> float:
    """``frame`` on the way out, ``BufferedFrameReader`` on the way in
    (CRC check included), 64 KiB reads as on a busy socket."""
    encoder = WireEncoder()
    payloads = [
        encoder.data_frame(seq, msg)
        for seq, msg in enumerate(_messages(samples))
    ]

    async def one_round() -> int:
        stream = asyncio.StreamReader(limit=1 << 26)
        stream.feed_data(b"".join(frame(p) for p in payloads))
        stream.feed_eof()
        reader = BufferedFrameReader(stream)
        seen = 0
        while (batch := await reader.read_batch()) is not None:
            seen += len(batch)
        if seen != len(payloads):
            raise AssertionError("framing round trip lost a frame")
        return seen

    return _per_call_us(lambda: asyncio.run(one_round()))


def trace_record_us(samples: Sequence[Sample]) -> float:
    """``LiveTrace.record`` of a delivery-shaped event, group-flushed
    every 64 records into an in-memory file (no disk in the number)."""

    def loop() -> int:
        trace = LiveTrace(io.StringIO(), buffer_records=64)
        for index, s in enumerate(samples):
            trace.record(
                0.001 * index, EventKind.DELIVER, s.dst,
                msg_id=index, uid=(s.dst, 0, index),
                prev_uid=(s.dst, 0, index - 1), replay=False,
            )
        trace.flush()
        return len(samples)

    return _per_call_us(loop)


# ---------------------------------------------------------------------------
# live.storage
# ---------------------------------------------------------------------------
def _persist_ms(storage: FileStableStorage) -> float:
    costs = []
    for round_ in range(ROUNDS):
        start = time.perf_counter_ns()
        storage.put("perf_probe", round_)       # put = full persist + fsync
        costs.append((time.perf_counter_ns() - start) / 1e6)
    return median(costs)


def storage_ms(image_path: str, pid: int, scratch: str) -> dict[str, float]:
    """Persist cost on a fresh image vs a copy of the run's final image
    (the ratio is the O(state) term), and reload + heal of that copy."""
    os.makedirs(scratch, exist_ok=True)
    small = FileStableStorage(pid, os.path.join(scratch, "small.pickle"))
    copy = os.path.join(scratch, "end.pickle")
    shutil.copyfile(image_path, copy)
    loads = []
    for _ in range(ROUNDS):
        start = time.perf_counter_ns()
        end = FileStableStorage(pid, copy)
        heal(end)
        loads.append((time.perf_counter_ns() - start) / 1e6)
    return {
        "persist_ms_small": _persist_ms(small),
        "persist_ms_end_image": _persist_ms(end),
        "load_heal_ms": median(loads),
    }


def replay_all(samples: Sequence[Sample]) -> dict[str, float]:
    """Every message-driven layer timer over one capture."""
    samples = thin(samples)
    if len(samples) < 2:
        raise ValueError("layer replay needs at least two captured messages")
    encode_us, decode_us, frame_bytes = wire_us(samples)
    return {
        "core.ftvc.merge_us": ftvc_merge_us(samples),
        "core.ftvc.delta_roundtrip_us": ftvc_delta_roundtrip_us(samples),
        "core.history.test_us": history_test_us(samples),
        "storage.log.append_us": log_append_us(samples),
        "live.wire.encode_us": encode_us,
        "live.wire.decode_us": decode_us,
        # What these messages would cost on a live link; workloads that
        # ran one overwrite this with the transport's own byte count.
        "live.wire.bytes_per_op": frame_bytes + OVERHEAD,
        "live.framing.roundtrip_us": framing_roundtrip_us(samples),
        "live.trace.record_us": trace_record_us(samples),
    }
