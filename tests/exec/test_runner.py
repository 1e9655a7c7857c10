"""ParallelRunner behaviour: ordering, isolation, caching, crashes."""

from collections import Counter

import pytest

from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner
from repro.exec.tasks import Task


def squares(count):
    return [
        Task(fn="tests.exec.helpers:square", payload={"x": i}, label=f"sq{i}")
        for i in range(count)
    ]


class TestInline:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_results_in_submission_order(self):
        outcomes = ParallelRunner(jobs=1).map(squares(6))
        assert [o.index for o in outcomes] == list(range(6))
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert all(o.ok and not o.cached for o in outcomes)

    def test_error_isolated_to_its_task(self):
        tasks = squares(3) + [
            Task(fn="tests.exec.helpers:boom", payload={"x": 9})
        ]
        outcomes = ParallelRunner(jobs=1).map(tasks)
        assert [o.ok for o in outcomes] == [True, True, True, False]
        assert "ValueError: boom 9" in outcomes[3].error
        assert not outcomes[3].crashed

    def test_progress_called_per_completion(self):
        seen = []
        ParallelRunner(jobs=1).map(
            squares(4), progress=lambda done, o: seen.append((done, o.index))
        )
        assert [done for done, _ in seen] == [1, 2, 3, 4]


class TestPool:
    def test_results_in_submission_order(self):
        outcomes = ParallelRunner(jobs=3).map(squares(10))
        assert [o.index for o in outcomes] == list(range(10))
        assert [o.value for o in outcomes] == [i * i for i in range(10)]

    def test_matches_inline_results(self):
        serial = ParallelRunner(jobs=1).map(squares(8))
        parallel = ParallelRunner(jobs=2).map(squares(8))
        assert [o.value for o in serial] == [o.value for o in parallel]

    def test_raised_exception_is_error_not_crash(self):
        tasks = [
            Task(fn="tests.exec.helpers:boom", payload={"x": i})
            for i in range(4)
        ]
        outcomes = ParallelRunner(jobs=2).map(tasks)
        assert all(o.error is not None and not o.crashed for o in outcomes)

    def test_worker_death_fails_only_that_task(self):
        tasks = [
            Task(
                fn="tests.exec.helpers:die_if_victim",
                payload={"x": i, "victim": 3},
            )
            for i in range(8)
        ]
        outcomes = ParallelRunner(jobs=2).map(tasks)
        crashed = [o for o in outcomes if o.crashed]
        assert [o.index for o in crashed] == [3]
        assert "exit code 43" in crashed[0].error
        survivors = [o for o in outcomes if not o.crashed]
        assert len(survivors) == 7
        assert all(o.value == o.index * 10 for o in survivors)

    @pytest.mark.parametrize(
        "fn, text",
        [("exit_now", "SystemExit"), ("unpicklable", "pickle")],
    )
    def test_worker_side_failure_is_error_not_crash(self, fn, text):
        # A task's SystemExit, or a result the worker cannot pickle back.
        tasks = [
            Task(fn=f"tests.exec.helpers:{fn}", payload={"x": i})
            for i in range(3)
        ]
        outcomes = ParallelRunner(jobs=2).map(tasks)
        assert all(not o.ok and not o.crashed for o in outcomes)
        assert all(text in o.error for o in outcomes)

    def test_worker_death_keeps_the_pool_at_strength(self):
        tasks = [
            Task(
                fn="tests.exec.helpers:nap_pid",
                payload={"x": i, "victim": 1},
            )
            for i in range(40)
        ]
        outcomes = ParallelRunner(jobs=2).map(tasks)
        assert [o.index for o in outcomes if o.crashed] == [1]
        per_pid = Counter(o.value for o in outcomes if not o.crashed)
        assert sum(1 for ran in per_pid.values() if ran >= 5) >= 2, per_pid

    def test_every_worker_dying_still_terminates(self):
        tasks = [
            Task(fn="tests.exec.helpers:die", payload={"x": i})
            for i in range(4)
        ]
        outcomes = ParallelRunner(jobs=2).map(tasks)
        assert all(o.crashed for o in outcomes)


class TestCaching:
    def test_second_map_is_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(jobs=1, cache=cache)
        first = runner.map(squares(5))
        second = runner.map(squares(5))
        assert all(not o.cached for o in first)
        assert all(o.cached for o in second)
        assert [o.value for o in first] == [o.value for o in second]

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).map(squares(5))
        outcomes = ParallelRunner(jobs=2, cache=cache).map(squares(5))
        assert all(o.cached for o in outcomes)

    def test_errors_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = [Task(fn="tests.exec.helpers:boom", payload={"x": 1})]
        runner = ParallelRunner(jobs=1, cache=cache)
        assert not runner.map(task)[0].ok
        assert len(cache) == 0
        assert not runner.map(task)[0].cached

    def test_cacheable_false_skips_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = [
            Task(
                fn="tests.exec.helpers:square",
                payload={"x": 2},
                cacheable=False,
            )
        ]
        runner = ParallelRunner(jobs=1, cache=cache)
        runner.map(task)
        assert len(cache) == 0
        assert not runner.map(task)[0].cached
