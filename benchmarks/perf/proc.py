"""Process plumbing: fresh worker subprocesses, CPU/RSS accounting,
straggler cleanup.

Every measured repetition runs in a fresh interpreter (a second
in-process pass over the simulator measured 35% slower than the first),
started from ``run.py --worker``.  The parent stamps
``time.monotonic()`` just before the spawn -- CLOCK_MONOTONIC is shared
by all processes on the host -- so the worker can report how long it
took from launch to its first accepted operation (``setup_s``).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

from benchmarks.perf.spec import ROOT

RUN_PY = os.path.join(ROOT, "benchmarks", "perf", "run.py")


#: What one probe loop costs on this class of host when nothing throttles
#: it.  Only ratios against it are used, so its value fixes the unit of
#: the corrected metrics ("per reference second"), not their comparison.
PROBE_REFERENCE_MS = 2.0


class HostProbe:
    """Samples how fast the host runs pure Python, all through a run.

    The sandbox this benchmark lives in throttles its CPUs in regimes
    that last seconds to minutes: the same loop costs anywhere between
    1x and 1.6x, *in CPU time*, and a 15 s run sits inside one or two
    regimes, so repeating or lengthening a run does not average them
    out (ten identical simulator runs spread 17%; corrected, 5%).  The
    orchestrating process is idle while its workers measure, so it runs
    this thread: every ``PERIOD_S`` seconds a fixed loop, timed on the
    thread's own CPU clock (fastest of three, so a cold core does not
    pass for a slow host).  :meth:`slowdown` then says how much slower
    than the reference the host was during a worker's measured window,
    and the CPU-bound workloads scale their timings by it.
    """

    LOOP = 40_000
    LOOPS_PER_SAMPLE = 3
    #: Light on purpose (3% of one core): a busier probe slows the
    #: workers it is gauging.
    PERIOD_S = 0.2

    def __init__(self) -> None:
        #: ``(time.monotonic(), loop cost in ms of thread CPU time)``
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "HostProbe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        # The thread has just slept, so its core may be cold (caches,
        # clock ramp): loop a few times back to back, keep the fastest.
        best = float("inf")
        for _ in range(self.LOOPS_PER_SAMPLE):
            start = time.thread_time()
            acc = 0
            for i in range(self.LOOP):
                acc += i * i % 7
            best = min(best, time.thread_time() - start)
        self.samples.append((time.monotonic(), best * 1e3))

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self._sample()

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe cost over ``[start, end]`` (monotonic seconds)
        relative to the reference; the sample nearest the window stands
        in when it is too short to hold one."""
        inside = [cost for at, cost in self.samples if start <= at <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return statistics.fmean(inside) / PROBE_REFERENCE_MS

    def overall(self) -> float:
        """Slowdown over everything sampled so far."""
        return self.slowdown(self.samples[0][0], self.samples[-1][0])


class WorkerError(RuntimeError):
    """A worker subprocess died, hung or printed no result."""


def cpu_seconds() -> float:
    """User+system CPU of this process and every child it has waited
    for (node processes included once their supervisor reaped them)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set reached by this process or any reaped child
    (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_worker(
    workload: str, params: dict[str, Any], *, timeout: float
) -> dict[str, Any]:
    """Run one repetition in a fresh interpreter; return its report.

    The wait is bounded: a hung worker is killed with its process group
    and surfaces as :class:`WorkerError`, never as a hung benchmark.
    """
    # Hash randomisation alone moves identical simulator runs by several
    # percent; the worker's own children (live nodes) inherit the setting.
    env = dict(os.environ, PYTHONHASHSEED="0")
    payload = dict(params, launched_at=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, RUN_PY, "--worker", workload,
         "--params", json.dumps(payload)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(
            f"{workload} worker exceeded its {timeout:.0f}s budget"
        ) from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"{workload} worker exited {proc.returncode}: {err.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def kill_stragglers(workdir: str) -> None:
    """SIGKILL any process still holding ``workdir`` on its command line
    (live nodes run in their own sessions, so a killed worker does not
    take them down) and wait until they are gone."""
    marker = os.path.abspath(workdir).encode()
    victims = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if marker in fh.read():
                    victims.append(int(entry))
        except OSError:
            continue
    for pid in victims:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    for pid in victims:
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
            time.sleep(0.02)
