"""Per-layer numbers read from what a run leaves behind: a finished
simulation's stats, or a live run's ``done_p*.json`` reports and storage
directory.

Nothing here runs while the measured code does, so collecting it cannot
perturb the measurement.
"""

from __future__ import annotations

import os
from typing import Any, Sequence

from benchmarks.perf import replay


class SimCounts:
    """Counts read from finished simulator runs, summed as they come:
    the Section 6.9 overhead account plus storage and kernel work."""

    def __init__(self) -> None:
        self.sent = self.delivered = self.control = 0
        self.replayed = self.restarts = 0
        self.bits = self.delta_bits = 0
        self.sync_writes = self.intents = self.events = 0
        self.history_max = self.rollbacks_max = 0

    def add(self, result: Any) -> None:
        from repro.analysis.metrics import measure_overhead

        overhead = measure_overhead(result)
        self.sent += result.total("app_sent")
        self.delivered += result.total_delivered
        self.control += result.total("control_sent")
        self.replayed += result.total("replayed")
        self.restarts += result.total_restarts
        self.bits += result.total("piggyback_bits")
        self.delta_bits += result.total("piggyback_delta_bits")
        self.sync_writes += overhead.sync_writes
        self.intents += sum(
            p.storage.intents_begun for p in result.protocols
        )
        self.events += result.sim.events_fired
        self.history_max = max(self.history_max, overhead.history_records_max)
        self.rollbacks_max = max(
            self.rollbacks_max, result.max_rollbacks_for_single_failure()
        )

    def metrics(self) -> dict[str, float]:
        per_sent = max(1, self.sent)
        per_delivery = max(1, self.delivered)
        return {
            "core.piggyback_bytes_per_msg": self.bits / 8 / per_sent,
            "core.piggyback_delta_bytes_per_msg": (
                self.delta_bits / 8 / per_sent
            ),
            "core.control_msgs_per_delivery": self.control / per_delivery,
            "core.rollbacks_per_failure_max": self.rollbacks_max,
            "core.replayed_per_restart": (
                self.replayed / max(1, self.restarts)
            ),
            "core.history_records_max": self.history_max,
            "storage.sync_writes_per_delivery": (
                self.sync_writes / per_delivery
            ),
            "storage.intents_per_delivery": self.intents / per_delivery,
            "sim.kernel.events_per_delivery": self.events / per_delivery,
        }


def live_counts(
    done: dict[int, dict[str, Any]], data_dir: str, ops: int
) -> dict[str, float]:
    """Transport / storage / trace work per operation, summed over the
    nodes' final incarnations (a SIGKILLed incarnation's counters die
    with it)."""
    reports = list(done.values())

    def total(*path: str) -> float:
        out = 0.0
        for report in reports:
            value: Any = report
            for key in path:
                value = value.get(key, 0) if isinstance(value, dict) else 0
            out += value
        return out

    ops = max(1, ops)
    sent = max(1.0, total("stats", "app_sent"))
    delivered = max(1.0, total("stats", "app_delivered"))
    persists = total("storage_persists")
    images = [
        os.path.join(data_dir, name)
        for name in sorted(os.listdir(data_dir))
        if name.endswith(".pickle")
    ]
    return {
        "core.piggyback_bytes_per_msg": (
            total("stats", "piggyback_bits") / 8 / sent
        ),
        "core.piggyback_delta_bytes_per_msg": (
            total("stats", "piggyback_delta_bits") / 8 / sent
        ),
        "core.control_msgs_per_delivery": (
            total("stats", "control_sent") / delivered
        ),
        "core.rollbacks_per_failure_max": max(
            (
                count
                for report in reports
                for count in report["stats"]["rollbacks_per_failure"].values()
            ),
            default=0,
        ),
        "core.replayed_per_restart": (
            total("stats", "replayed") / max(1.0, total("stats", "restarts"))
        ),
        "storage.sync_writes_per_delivery": (
            total("storage_sync_writes") / delivered
        ),
        "storage.intents_per_delivery": total("intents", "begun") / delivered,
        "live.wire.bytes_per_op": total("transport", "bytes_sent") / ops,
        "live.transport.deliveries_per_batch": (
            total("transport", "delivered")
            / max(1.0, total("delivery_batches"))
        ),
        "live.transport.batch_max": max(
            (r.get("delivery_batch_max", 0) for r in reports), default=0
        ),
        "live.transport.retransmits": total("transport", "retransmitted"),
        "live.transport.dial_attempts": total("transport", "dial_attempts"),
        "live.storage.persists_per_kop": persists * 1e3 / ops,
        # Every persist fsyncs the image file and then its directory.
        "live.storage.fsyncs_per_op": (
            (persists + total("storage_dir_fsyncs")) / ops
        ),
        "live.storage.window_flush_share": (
            total("storage_window_flushes") / max(1.0, persists)
        ),
        "live.storage.image_kb_end": (
            sum(os.path.getsize(path) for path in images) / 1024.0
        ),
        "live.trace.flushes_per_kop": total("trace_flushes") * 1e3 / ops,
        "live.trace.records_per_flush": (
            total("trace_records") / max(1.0, total("trace_flushes"))
        ),
    }


def image_path(data_dir: str, pid: int) -> str:
    return os.path.join(data_dir, f"stable_p{pid}.pickle")


def largest_image_pid(data_dir: str, pids: Sequence[int]) -> int:
    return max(pids, key=lambda pid: os.path.getsize(image_path(data_dir, pid)))


def live_replay(
    data_dir: str, pids: Sequence[int], storage_pid: int, scratch: str
) -> dict[str, float]:
    """Layer replay over the run's final storage images: the messages
    they still hold drive the message timers; ``storage_pid``'s image
    drives the persist / reload timers."""
    from repro.live.storage import FileStableStorage

    samples: list[replay.Sample] = []
    history_max = 0
    for pid in pids:
        storage = FileStableStorage(pid, image_path(data_dir, pid))
        samples += replay.samples_from_image(pid, storage)
        if len(storage.checkpoints):
            history = storage.checkpoints.latest().extras.get("history")
            if history is not None:
                history_max = max(history_max, history.size())
    out = replay.replay_all(samples)
    # The transport counted the real bytes; drop the replay's estimate.
    del out["live.wire.bytes_per_op"]
    out["core.history_records_max"] = history_max
    timings = replay.storage_ms(
        image_path(data_dir, storage_pid), storage_pid, scratch
    )
    out.update({f"live.storage.{k}": v for k, v in timings.items()})
    return out


def replayed_ms_per_op(
    layers: dict[str, float], *, messages: float, records: float,
    persists: float,
) -> float:
    """Sum of replayed layer costs for one operation that moves
    ``messages`` frames, writes ``records`` trace lines and shares
    ``persists`` storage barriers (image size taken as the mean of the
    fresh and the final image)."""
    per_message_us = (
        layers["live.wire.encode_us"]
        + layers["live.wire.decode_us"]
        + layers["live.framing.roundtrip_us"]
        + layers["core.ftvc.merge_us"]
        + layers["core.history.test_us"]
        + layers["storage.log.append_us"]
    )
    persist_ms = 0.5 * (
        layers["live.storage.persist_ms_small"]
        + layers["live.storage.persist_ms_end_image"]
    )
    return (
        messages * per_message_us / 1e3
        + records * layers["live.trace.record_us"] / 1e3
        + persists * persist_ms
    )
