"""The parallel execution engine: a crash-isolated worker pool.

:class:`ParallelRunner` fans a list of :class:`~repro.exec.tasks.Task`
descriptors out over ``jobs`` worker processes and merges the outcomes
back **in submission order**, so a parallel sweep reports results in
exactly the order the serial loop would -- the determinism contract that
the parallel-vs-serial equivalence tests pin down.

Worker model (see ``docs/PARALLELISM.md``):

- the parent posts every pending task to a shared queue, plus one ``None``
  sentinel per worker;
- each worker loops ``get -> announce start -> run -> report done``,
  reporting over a lock-serialised pipe whose writes complete *before*
  the next instruction runs -- so a worker that dies mid-task has always
  durably announced which task it was running;
- a worker that *dies* (segfault, OOM-kill, ``os._exit``) takes down only
  that announced task: the parent drains the report pipe, notices the
  dead process, records a ``crashed`` outcome for the one task, and
  spawns a replacement worker that keeps draining the queue.  One
  pathological schedule therefore fails one task, never the pool;
- a worker exits cleanly only by consuming a sentinel, so once every
  sentinel is consumed the task queue is provably empty and any still
  unresolved task (lost in the dequeue-to-announce window) can be
  re-posted without risking double execution.

``jobs <= 1`` runs everything inline in the parent (no processes, no
pickling) through the same cache and outcome plumbing, which is also the
degenerate case the equivalence oracle compares against.

Results are cached per task when a :class:`~repro.exec.cache.ResultCache`
is supplied: hits skip execution entirely, and only *successful* values
are ever written back (errors and crashes may be environmental and must
stay retryable).
"""

from __future__ import annotations

import multiprocessing
import sys
import traceback
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.exec.cache import ResultCache
from repro.exec.tasks import Task, TaskOutcome, resolve_fn, task_key

#: Progress callback: (number of tasks finished so far, outcome just done).
ProgressFn = Callable[[int, TaskOutcome], None]


def _worker_main(
    worker_id: int,
    sys_path: list[str],
    task_queue: Any,
    report: Any,
    report_lock: Any,
) -> None:
    """Worker loop: run tasks until a ``None`` sentinel arrives.

    ``sys_path`` replays the parent's import path so the ``spawn`` start
    method (no inherited interpreter state) finds the repro package even
    when it was made importable via ``PYTHONPATH=src``.  Reports go over
    ``report`` (one pipe writer shared by all workers) under
    ``report_lock``; ``Connection.send`` returns only once the message is
    in the pipe, which is what makes crash attribution exact.
    """
    for entry in reversed(sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    def send(kind: str, index: int, payload: Any = None) -> None:
        with report_lock:
            report.send((kind, worker_id, index, payload))

    while True:
        item = task_queue.get()
        if item is None:
            send("exit", -1)
            return
        index, fn_ref, payload = item
        send("start", index)
        started = perf_counter()
        try:
            value = resolve_fn(fn_ref)(payload)
            result = (value, None, perf_counter() - started)
        except BaseException:
            result = (
                None,
                traceback.format_exc(limit=20),
                perf_counter() - started,
            )
        send("done", index, result)


class ParallelRunner:
    """Run independent tasks across worker processes, deterministically.

    Parameters:

    - ``jobs`` -- worker process count; ``<= 1`` executes inline;
    - ``cache`` -- optional :class:`ResultCache` consulted per task;
    - ``start_method`` -- multiprocessing start method; defaults to
      ``fork`` where available (cheap on Linux) and ``spawn`` elsewhere.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: ResultCache | None = None,
        start_method: str | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def map(
        self,
        tasks: Sequence[Task],
        *,
        progress: ProgressFn | None = None,
    ) -> list[TaskOutcome]:
        """Run every task; return outcomes in submission order."""
        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        done_count = 0

        def finish(outcome: TaskOutcome) -> None:
            nonlocal done_count
            outcomes[outcome.index] = outcome
            done_count += 1
            if progress is not None:
                progress(done_count, outcome)

        pending: list[int] = []
        for index, task in enumerate(tasks):
            hit_outcome = self._try_cache(index, task)
            if hit_outcome is not None:
                finish(hit_outcome)
            else:
                pending.append(index)

        if self.jobs <= 1 or len(pending) <= 1:
            for index in pending:
                finish(self._run_inline(index, tasks[index]))
        else:
            for outcome in self._run_pool(tasks, pending):
                finish(outcome)

        assert all(o is not None for o in outcomes)
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _try_cache(self, index: int, task: Task) -> TaskOutcome | None:
        if self.cache is None or not task.cacheable:
            return None
        hit, value = self.cache.get(task_key(task))
        if not hit:
            return None
        return TaskOutcome(
            index=index, value=value, cached=True, label=task.label
        )

    def _store(self, task: Task, outcome: TaskOutcome) -> None:
        if (
            self.cache is not None
            and task.cacheable
            and outcome.ok
            and not outcome.cached
        ):
            self.cache.put(task_key(task), outcome.value)

    # ------------------------------------------------------------------
    # Inline (jobs=1) path
    # ------------------------------------------------------------------
    def _run_inline(self, index: int, task: Task) -> TaskOutcome:
        started = perf_counter()
        try:
            value = resolve_fn(task.fn)(task.payload)
            outcome = TaskOutcome(
                index=index,
                value=value,
                wall_s=perf_counter() - started,
                label=task.label,
            )
        except Exception:
            outcome = TaskOutcome(
                index=index,
                error=traceback.format_exc(limit=20),
                wall_s=perf_counter() - started,
                label=task.label,
            )
        self._store(task, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Worker-pool path
    # ------------------------------------------------------------------
    def _run_pool(self, tasks: Sequence[Task], pending: list[int]):
        """Yield outcomes for ``pending`` task indices as they complete."""
        task_queue = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        report_lock = self._ctx.Lock()
        worker_count = min(self.jobs, len(pending))
        for index in pending:
            task_queue.put((index, tasks[index].fn, tasks[index].payload))
        for _ in range(worker_count):
            task_queue.put(None)
        sentinels_posted = worker_count
        clean_exits = 0

        workers: dict[int, Any] = {}
        in_flight: dict[int, int | None] = {}      # worker id -> task index
        next_worker_id = 0
        # Every crash consumes one respawn; the bound is far above anything
        # a healthy run needs, purely so a machine that kills every child
        # (e.g. an aggressive OOM killer) terminates instead of spinning.
        respawn_budget = 2 * len(pending) + 4 * worker_count

        def spawn() -> None:
            nonlocal next_worker_id
            wid = next_worker_id
            next_worker_id += 1
            proc = self._ctx.Process(
                target=_worker_main,
                args=(wid, list(sys.path), task_queue, writer, report_lock),
                daemon=True,
            )
            proc.start()
            workers[wid] = proc
            in_flight[wid] = None

        unresolved = set(pending)
        try:
            while unresolved:
                # Keep the pool at strength while work remains.
                target = min(worker_count, len(unresolved))
                while len(workers) < target and respawn_budget > 0:
                    respawn_budget -= 1
                    spawn()
                if not workers:
                    # Respawn budget exhausted: fail leftovers, don't hang.
                    for index in sorted(unresolved):
                        yield TaskOutcome(
                            index=index,
                            crashed=True,
                            error="worker pool exhausted its respawn "
                            "budget before this task completed",
                            label=tasks[index].label,
                        )
                    unresolved.clear()
                    break
                if reader.poll(0.2):
                    kind, wid, index, payload = reader.recv()
                    if kind == "start":
                        in_flight[wid] = index
                    elif kind == "done":
                        in_flight[wid] = None
                        if index in unresolved:
                            unresolved.discard(index)
                            value, error, wall_s = payload
                            outcome = TaskOutcome(
                                index=index,
                                value=value,
                                error=error,
                                wall_s=wall_s,
                                label=tasks[index].label,
                            )
                            self._store(tasks[index], outcome)
                            yield outcome
                    elif kind == "exit":
                        clean_exits += 1
                        proc = workers.pop(wid, None)
                        in_flight.pop(wid, None)
                        if proc is not None:
                            proc.join(timeout=5.0)
                    continue
                # Pipe drained: dead workers have no unread announcements,
                # so attributing their in-flight task as crashed is exact.
                yield from self._reap_dead(
                    workers, in_flight, tasks, unresolved
                )
                # A worker can die *between* dequeuing a task and
                # announcing it; such a task is silently lost.  Once every
                # sentinel has been consumed the queue is provably empty,
                # so leftovers can be re-posted without double execution.
                busy = any(index is not None for index in in_flight.values())
                if clean_exits == sentinels_posted and unresolved and not busy:
                    refill = min(worker_count, len(unresolved))
                    for index in sorted(unresolved):
                        task_queue.put(
                            (index, tasks[index].fn, tasks[index].payload)
                        )
                    for _ in range(refill):
                        task_queue.put(None)
                    sentinels_posted += refill
        finally:
            for proc in workers.values():
                proc.terminate()
            for proc in workers.values():
                proc.join(timeout=5.0)
            writer.close()
            reader.close()
            task_queue.close()
            task_queue.cancel_join_thread()

    def _reap_dead(
        self,
        workers: dict[int, Any],
        in_flight: dict[int, int | None],
        tasks: Sequence[Task],
        unresolved: set[int],
    ):
        """Attribute dead workers' announced tasks as crashed outcomes."""
        for wid in list(workers):
            proc = workers[wid]
            if proc.is_alive():
                continue
            exitcode = proc.exitcode
            workers.pop(wid)
            index = in_flight.pop(wid, None)
            if index is not None and index in unresolved:
                unresolved.discard(index)
                yield TaskOutcome(
                    index=index,
                    crashed=True,
                    error=(
                        f"worker process died (exit code {exitcode}) while "
                        f"running task {index} "
                        f"({tasks[index].label or tasks[index].fn})"
                    ),
                    label=tasks[index].label,
                )
