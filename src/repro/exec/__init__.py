"""Parallel execution engine: fan seeded runs out across worker processes.

Every workload in this repo -- stress sweeps, benchmark repeats, the
Table 1 protocol matrix -- is a list of *independent, seed-deterministic*
tasks, so they parallelise trivially and, crucially, *verifiably*: the
engine merges results in submission order and the equivalence tests assert
that ``jobs=N`` is bit-identical to ``jobs=1``.  Quick tour::

    from repro.exec import ParallelRunner, ResultCache, Task

    runner = ParallelRunner(jobs=4, cache=ResultCache(".repro-cache"))
    outcomes = runner.map([
        Task(fn="repro.stress.sweep:exec_run_case",
             payload={"case": {...}, "theorem_max_states": 60})
    ])

The pool is the standard library's ``ProcessPoolExecutor``, and it is
crash-isolated: a worker death breaks the pool, the tasks that were in
flight re-run one by one in their own processes (so only the schedule
that kills its process fails, with ``crashed=True``), and a fresh pool
of full strength takes the rest of the queue.  See
``docs/PARALLELISM.md`` for the worker model, the determinism contract,
and the cache-key definition.
"""

from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner
from repro.exec.tasks import (
    Task,
    TaskOutcome,
    code_fingerprint,
    resolve_fn,
    task_key,
)

__all__ = [
    "ParallelRunner",
    "ResultCache",
    "Task",
    "TaskOutcome",
    "code_fingerprint",
    "resolve_fn",
    "task_key",
]
