"""Executor self-healing: per-task retries and worker-crash resubmission."""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import pytest

from repro.harness.execution import (
    DEFAULT_RETRY_BACKOFF,
    MAX_POOL_REBUILDS,
    Executor,
    PoolTaskTimeout,
    ProcessExecutor,
    SerialExecutor,
    call_with_retries,
    create_executor,
    register_executor,
)
from repro.harness.execution import process as process_module
from repro.harness.execution.registry import unregister_executor


def _double(task):
    return task * 2


def _fail(task):
    raise RuntimeError(f"boom on {task}")


def _crash_once(flag_path):
    """Die the first time any worker runs this; succeed after the flag exists.

    Top-level (picklable) and keyed on a filesystem flag so the "already
    crashed" state survives the worker's death.
    """
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("crashed")
        os._exit(13)
    return "recovered"


def _crash_always(task):
    os._exit(13)


def _crash_once_task(task):
    flag_path, payload = task
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("crashed")
        os._exit(13)
    return payload * 10


class TestCallWithRetries:
    def test_success_needs_no_retries(self):
        assert call_with_retries(_double, 21) == 42

    def test_zero_retries_fails_fast(self):
        calls = []

        def flaky(task):
            calls.append(task)
            raise ValueError("nope")

        with pytest.raises(ValueError):
            call_with_retries(flaky, "x", retries=0, backoff=0)
        assert len(calls) == 1

    def test_retries_until_success(self):
        calls = []

        def flaky(task):
            calls.append(task)
            if len(calls) < 3:
                raise ValueError("transient")
            return "done"

        assert call_with_retries(flaky, "x", retries=5, backoff=0) == "done"
        assert len(calls) == 3

    def test_final_failure_propagates_unchanged(self):
        error = KeyError("original")

        def always(task):
            raise error

        with pytest.raises(KeyError) as excinfo:
            call_with_retries(always, "x", retries=2, backoff=0)
        assert excinfo.value is error

    def test_backoff_doubles_per_attempt(self):
        sleeps = []
        with mock.patch("time.sleep", sleeps.append):
            with pytest.raises(ValueError):
                call_with_retries(_raise_value_error, "x", retries=3, backoff=0.1)
        assert sleeps == [0.1, 0.2, 0.4]


def _raise_value_error(task):
    raise ValueError("always")


class TestExecutorConstruction:
    def test_retries_must_be_non_negative(self):
        with pytest.raises(ValueError, match="retries"):
            SerialExecutor(retries=-1)

    def test_backoff_must_be_non_negative(self):
        with pytest.raises(ValueError, match="retry_backoff"):
            SerialExecutor(retry_backoff=-0.5)

    def test_defaults(self):
        executor = SerialExecutor()
        assert executor.retries == 0
        assert executor.retry_backoff == DEFAULT_RETRY_BACKOFF

    def test_create_executor_forwards_retry_settings(self):
        executor = create_executor("serial", retries=3, retry_backoff=0.25)
        assert executor.retries == 3
        assert executor.retry_backoff == 0.25

    def test_create_executor_tolerates_legacy_signatures(self):
        class LegacyExecutor(Executor):
            name = "test_legacy"
            description = "jobs-only constructor"

            def __init__(self, jobs=None):
                super().__init__(jobs=jobs)

            def run_tasks(self, fn, tasks, progress=None):
                return [fn(task) for task in tasks]

        register_executor(LegacyExecutor)
        try:
            # No retry settings requested: the legacy __init__(jobs) still works.
            executor = create_executor("test_legacy")
            assert executor.retries == 0
        finally:
            unregister_executor("test_legacy")


class TestSerialRetries:
    def test_serial_retries_flaky_task(self, tmp_path):
        flag = tmp_path / "failed-once"

        def flaky(task):
            if not flag.exists():
                flag.write_text("yes")
                raise RuntimeError("transient")
            return task + 1

        executor = SerialExecutor(retries=1, retry_backoff=0)
        assert executor.run_tasks(flaky, [1, 2]) == [2, 3]

    def test_serial_fail_fast_without_retries(self):
        executor = SerialExecutor()
        with pytest.raises(RuntimeError, match="boom"):
            executor.run_tasks(_fail, [1])


class TestProcessPoolCrashRecovery:
    """These force the pool path on the single-CPU CI host by disabling the
    serial fallback; worker death then exercises the rebuild machinery."""

    @pytest.fixture(autouse=True)
    def _force_pool(self):
        with mock.patch.object(
            process_module, "serial_fallback_reason", lambda jobs, n: None
        ):
            yield

    def test_task_exception_fails_fast(self):
        executor = ProcessExecutor(jobs=2)
        with pytest.raises(RuntimeError, match="boom"):
            executor.run_tasks(_fail, [1, 2])

    def test_worker_crash_is_resubmitted(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        executor = ProcessExecutor(jobs=2)
        results = executor.run_tasks(_crash_once, [flag, flag, flag])
        assert results == ["recovered", "recovered", "recovered"]

    def test_progress_stays_ordered_across_rebuild(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        executor = ProcessExecutor(jobs=2)
        seen = []

        def progress(index, task, result):
            seen.append(index)

        tasks = [(flag, 1), (flag, 2), (flag, 3)]
        results = executor.run_tasks(_crash_once_task, tasks, progress)
        assert results == [10, 20, 30]
        assert seen == sorted(seen)
        assert set(seen) == {0, 1, 2}

    def test_deterministic_crash_is_bounded(self):
        executor = ProcessExecutor(jobs=2)
        with pytest.raises(BrokenProcessPool, match="giving up"):
            executor.run_tasks(_crash_always, [1, 2])

    def test_rebuild_limit_mentioned_in_failure(self):
        executor = ProcessExecutor(jobs=2)
        with pytest.raises(BrokenProcessPool, match=str(MAX_POOL_REBUILDS)):
            executor.run_tasks(_crash_always, [1, 2])


def _sleep_forever(task):
    import time

    time.sleep(3600)


class TestProcessPoolDeadline:
    """A worker that never answers fails the sweep, naming the task."""

    def test_stuck_task_is_named_and_pool_terminated(self, monkeypatch):
        monkeypatch.setattr(process_module, "serial_fallback_reason", lambda j, n: None)
        monkeypatch.setattr(process_module, "RESULT_DEADLINE_S", 0.5)
        executor = ProcessExecutor(jobs=2)
        with pytest.raises(PoolTaskTimeout, match=r"task 0 \('stuck-probe'\)"):
            executor.run_tasks(_sleep_forever, ["stuck-probe", "other"])
