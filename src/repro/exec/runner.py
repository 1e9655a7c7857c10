"""The parallel execution engine: a crash-isolated worker pool.

:class:`ParallelRunner` fans a list of :class:`~repro.exec.tasks.Task`
descriptors out over ``jobs`` worker processes and merges the outcomes
back **in submission order**, so a parallel sweep reports results in
exactly the order the serial loop would -- the determinism contract that
the parallel-vs-serial equivalence tests pin down.

The pool is the standard library's ``ProcessPoolExecutor`` (``fork``
where available, else ``spawn``) with at most ``2 * jobs`` tasks in
flight.  A worker that *dies* (segfault, OOM-kill, ``os._exit``) breaks
the pool, and every task in flight comes back a *suspect*: the runner
stops submitting, drains the pool, and re-runs each suspect alone in its
own process -- the one that dies again gets a ``crashed`` outcome with
its exit code.  A fresh pool then takes the rest of the queue, so one
pathological schedule fails one task, never the pool (see
``docs/PARALLELISM.md``).

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
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED, Future, ProcessPoolExecutor, wait,
)
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.exec.cache import ResultCache
from repro.exec.tasks import Task, TaskOutcome, resolve_fn, task_key

#: Progress callback: (number of tasks finished so far, outcome just done).
ProgressFn = Callable[[int, TaskOutcome], None]


def _extend_sys_path(sys_path: list[str]) -> None:
    """Replay the parent's import path, so a ``spawn`` worker finds the
    repro package even when it is importable only via ``PYTHONPATH``."""
    for entry in reversed(sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _call(fn_ref: str, payload: Any) -> tuple[Any, str | None, float]:
    """Run one task in a worker: ``(value, error, wall_s)``.  Catching
    ``BaseException`` makes a task's ``SystemExit`` an error outcome."""
    started = perf_counter()
    try:
        return resolve_fn(fn_ref)(payload), None, perf_counter() - started
    except BaseException:
        return None, traceback.format_exc(limit=20), perf_counter() - started


def _call_alone(conn: Any, path: list[str], fn: str, payload: Any) -> None:
    """Body of a suspect's own process: send its result up ``conn``."""
    _extend_sys_path(path)
    conn.send(_call(fn, payload))


class ParallelRunner:
    """Run independent tasks across worker processes, deterministically.

    Parameters:

    - ``jobs`` -- worker process count; ``<= 1`` executes inline;
    - ``cache`` -- optional :class:`ResultCache` consulted per task.
    """

    def __init__(
        self, jobs: int = 1, *, cache: ResultCache | None = None
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        method = "spawn" if sys.platform == "win32" else "fork"
        self._ctx = multiprocessing.get_context(method)

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

    def _try_cache(self, index: int, task: Task) -> TaskOutcome | None:
        if self.cache is None or not task.cacheable:
            return None
        hit, value = self.cache.get(task_key(task))
        if not hit:
            return None
        return TaskOutcome(
            index=index, value=value, cached=True, label=task.label
        )

    def _outcome(self, task: Task, index: int, result: tuple) -> TaskOutcome:
        """The outcome of a task that ran to the end, stored if cacheable."""
        value, error, wall_s = result
        outcome = TaskOutcome(
            index=index, value=value, error=error, wall_s=wall_s,
            label=task.label,
        )
        if self.cache is not None and task.cacheable and outcome.ok:
            self.cache.put(task_key(task), value)
        return outcome

    def _run_inline(self, index: int, task: Task) -> TaskOutcome:
        started = perf_counter()
        try:
            value, error = resolve_fn(task.fn)(task.payload), None
        except Exception:
            value, error = None, traceback.format_exc(limit=20)
        wall_s = perf_counter() - started
        return self._outcome(task, index, (value, error, wall_s))

    def _run_pool(self, tasks: Sequence[Task], pending: list[int]):
        """Yield outcomes for ``pending`` task indices as they complete."""
        queue, limit = deque(pending), 2 * self.jobs
        while queue:
            suspects: list[int] = []
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(queue)),
                mp_context=self._ctx,
                initializer=_extend_sys_path,
                initargs=(list(sys.path),),
            )
            in_flight: dict[Future, int] = {}
            try:
                while in_flight or (queue and not suspects):
                    while queue and not suspects and len(in_flight) < limit:
                        index = queue.popleft()
                        task = tasks[index]
                        try:
                            future = pool.submit(_call, task.fn, task.payload)
                        except BrokenProcessPool:
                            suspects.append(index)
                            break
                        in_flight[future] = index
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = in_flight.pop(future)
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            suspects.append(index)
                            continue
                        except Exception:
                            error = traceback.format_exc(limit=20)
                            result = (None, error, 0.0)
                        yield self._outcome(tasks[index], index, result)
            finally:
                pool.shutdown(cancel_futures=True)
            for index in sorted(suspects):
                yield self._run_alone(tasks[index], index)

    def _run_alone(self, task: Task, index: int) -> TaskOutcome:
        """Re-run a suspect in its own process: a result is a normal
        outcome, a process that dies without one is the crash."""
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_call_alone,
            args=(writer, list(sys.path), task.fn, task.payload),
            daemon=True,
        )
        proc.start()
        writer.close()
        with reader:
            try:
                return self._outcome(task, index, reader.recv())
            except EOFError:
                proc.join()
                error = (
                    f"worker process died (exit code {proc.exitcode}) while "
                    f"running task {index} ({task.label or task.fn})"
                )
                return TaskOutcome(index, error=error, crashed=True,
                                   label=task.label)
            finally:
                proc.join()
