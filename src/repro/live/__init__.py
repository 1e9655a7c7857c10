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

from repro import _lazy_exports

#: Each public name and the module that defines it.  Nothing is imported
#: up front, so ``python -m repro.live.storage PATH`` and ``python -m
#: repro.live.node`` execute their module once, as ``__main__``.
_EXPORTS = {
    "FileStableStorage": "repro.live.storage",
    "LiveClusterSpec": "repro.live.supervisor",
    "LiveCorruptFramePlan": "repro.live.faults",
    "LiveCrashPlan": "repro.live.supervisor",
    "LiveDiskFaultPlan": "repro.live.faults",
    "LiveEnv": "repro.live.env",
    "LiveFaultPlan": "repro.live.faults",
    "LiveGrayLinkPlan": "repro.live.faults",
    "LiveLinkDropPlan": "repro.live.faults",
    "LivePartitionPlan": "repro.live.faults",
    "LiveTrace": "repro.live.env",
    "LiveVerdict": "repro.live.verify",
    "LoadPipelineApp": "repro.live.load",
    "NodeFaults": "repro.live.faults",
    "OpenLoopSource": "repro.live.load",
    "RecoveryTimeline": "repro.live.verify",
    "check_live_run": "repro.live.verify",
    "recovery_timeline": "repro.live.verify",
    "run_cluster": "repro.live.supervisor",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
