"""Live asyncio cluster runtime.

Runs the same protocol objects the simulator runs -- unchanged, through
the :class:`~repro.runtime.env.RuntimeEnv` interface -- as real OS
processes talking over TCP, with file-backed stable storage and real
SIGKILL crashes:

- :mod:`repro.live.wire` / :mod:`repro.live.framing` -- the wire format
  (binary frames with delta-encoded clocks, length-prefixed and
  checksummed); :mod:`repro.live.codec` is the tagged-JSON encoding of
  trace fields and done reports;
- :mod:`repro.live.storage` -- :class:`FileStableStorage`, persisting the
  durable half of a process's state as an append-only, checksummed
  record log (``python -m repro.live.storage PATH`` prints one);
- :mod:`repro.live.env` -- :class:`LiveEnv`, the event-loop-backed
  environment implementation, and the JSONL trace writer;
- :mod:`repro.live.transport` -- the reconnecting full-mesh transport
  with per-link sequencing and a durable outbox (reliable channels
  across crashes);
- :mod:`repro.live.node` -- one cluster member (``python -m
  repro.live.node --config ...``);
- :mod:`repro.live.supervisor` -- spawns the cluster, injects SIGKILL
  crashes per a :class:`LiveCrashPlan`, merges the trace;
- :mod:`repro.live.faults` -- :class:`LiveFaultPlan`, the live mirror of
  the simulator's failure vocabulary (partitions, asymmetric drops, gray
  links, disk faults, corrupt frames), enforced node-side;
- :mod:`repro.live.verify` -- recovery/no-orphan verdict over the merged
  trace, and the per-crash :func:`recovery_timeline`;
- :mod:`repro.live.load` -- the open-loop load source and its cluster
  spec; :mod:`repro.live.bench` -- a trace's active window.
"""

from repro.live.env import LiveEnv, LiveTrace
from repro.live.faults import (
    LiveCorruptFramePlan,
    LiveDiskFaultPlan,
    LiveFaultPlan,
    LiveGrayLinkPlan,
    LiveLinkDropPlan,
    LivePartitionPlan,
    NodeFaults,
)
from repro.live.load import LoadPipelineApp, OpenLoopSource
from repro.live.supervisor import LiveClusterSpec, LiveCrashPlan, run_cluster
from repro.live.verify import (
    LiveVerdict,
    RecoveryTimeline,
    check_live_run,
    recovery_timeline,
)


def __getattr__(name: str):
    # Resolved on first use rather than imported above, so that
    # ``python -m repro.live.storage PATH`` executes the module once, as
    # ``__main__``, instead of a second time beside an imported copy.
    if name == "FileStableStorage":
        from repro.live.storage import FileStableStorage

        return FileStableStorage
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FileStableStorage",
    "LiveClusterSpec",
    "LiveCorruptFramePlan",
    "LiveCrashPlan",
    "LiveDiskFaultPlan",
    "LiveEnv",
    "LiveFaultPlan",
    "LiveGrayLinkPlan",
    "LiveLinkDropPlan",
    "LivePartitionPlan",
    "LiveTrace",
    "LiveVerdict",
    "LoadPipelineApp",
    "NodeFaults",
    "OpenLoopSource",
    "RecoveryTimeline",
    "check_live_run",
    "recovery_timeline",
    "run_cluster",
]
