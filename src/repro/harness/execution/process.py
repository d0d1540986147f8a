"""The process executor: shard cells over a worker-process pool.

Cells are independent by construction (each carries its own seed and
builds its own backend), so a sweep parallelizes embarrassingly: the pool
maps :func:`~repro.harness.execution.cells.execute_cell` over the cell
list and the parent reassembles results in cell order.

Built on :class:`concurrent.futures.ProcessPoolExecutor` rather than the
raw ``multiprocessing.Pool`` for one robustness property: a worker that
*dies* (killed by the OS, ``os._exit`` in task code, a segfaulting C
extension) surfaces as :class:`~concurrent.futures.process.BrokenProcessPool`
instead of hanging the parent forever.  ``run_tasks`` treats that as a
recoverable infrastructure fault — the pool is rebuilt and the unfinished
tasks resubmitted, a bounded number of times — while ordinary task
exceptions still fail fast.  Per-task transient failures are additionally
retried *inside* the worker (``retries``/``retry_backoff``, see
:func:`~repro.harness.execution.base.call_with_retries`), so a retryable
failure never pays pool-rebuild costs.

Completions are consumed in submission order (workers still execute out of
order), which is what lets progress reporting honour the executor contract
(one ordered callback per task, parent process only) without extra
sequencing machinery.  Each result is awaited for at most
:data:`RESULT_DEADLINE_S` seconds: a worker that never answers (wedged on
a lock it inherited through ``fork``, say) fails the sweep with a
:class:`PoolTaskTimeout` naming the task, and the pool's workers are
terminated, instead of leaving the parent waiting forever.

The ``fork`` start method is preferred where available (workers inherit
the imported problem/policy registries instead of re-importing them);
elsewhere the platform default is used, which requires ``repro`` to be
importable in fresh interpreters — true whenever the parent could import
it, since ``PYTHONPATH`` is inherited.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence

from repro.harness.execution.base import (
    Executor,
    TaskProgressCallback,
    call_with_retries,
)
from repro.harness.execution.registry import register_executor
from repro.harness.execution.serial import SerialExecutor

__all__ = [
    "MAX_POOL_REBUILDS",
    "RESULT_DEADLINE_S",
    "PoolTaskTimeout",
    "ProcessExecutor",
    "default_job_count",
    "serial_fallback_reason",
]

#: How many times a broken pool (worker death) is rebuilt and the
#: unfinished tasks resubmitted before the sweep fails.  Bounded: a task
#: that *deterministically* kills its worker must not respawn pools forever.
MAX_POOL_REBUILDS = 2

#: Seconds ``run_tasks`` waits for any one task's result.  Results are
#: consumed in submission order and the pool starts tasks in that order, so
#: the wait covers the task's own run, never a queue behind later tasks.
RESULT_DEADLINE_S = 1800.0


class PoolTaskTimeout(TimeoutError):
    """A pool worker produced no result for a task within
    :data:`RESULT_DEADLINE_S`; the message names the task."""


def _describe_task(index: int, task: Any, limit: int = 200) -> str:
    text = repr(task)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return f"task {index} ({text})"


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill *pool*'s workers and shut it down without waiting.

    ``shutdown(wait=True)`` would join a wedged worker forever; the
    executor exposes its processes only through a private attribute.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def default_job_count() -> int:
    """A sensible default worker count: every available core."""
    return max(1, os.cpu_count() or 1)


def serial_fallback_reason(jobs: int, task_count: int) -> Optional[str]:
    """Why a process pool would only add overhead, or None if it may help.

    On a single-CPU host the pool's workers time-slice one core, so the
    sweep pays fork + pickling + IPC for zero parallelism — measured at
    0.72-0.83x of the serial wall-clock.  Same story for an effective
    worker count of one.  ``run_tasks`` consults this to fall back to the
    in-process path, and the parallel-harness benchmark records the reason
    in its JSON instead of reporting a bogus "speedup".
    """
    effective = min(jobs, task_count)
    if effective <= 1:
        return f"effective jobs == {max(effective, 0)}"
    if (os.cpu_count() or 1) <= 1:
        return "single-CPU host (cpu_count() == 1)"
    return None


@register_executor
class ProcessExecutor(Executor):
    """Execute cells in parallel across ``jobs`` worker processes."""

    name = "process"
    description = "shard cells across worker processes (process pool)"

    @classmethod
    def default_jobs(cls) -> int:
        # Selecting the process executor without an explicit job count means
        # "use the machine": one worker per core, not a silent serial run.
        return default_job_count()

    def describe(self) -> str:
        # self.jobs is the core count unless explicitly configured, so the
        # registry listing (built from a default instance) shows the real
        # default for this machine.
        return f"{self.description}; jobs={self.jobs}"

    @staticmethod
    def _pool_context():
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        progress: Optional[TaskProgressCallback] = None,
    ) -> List[Any]:
        tasks = list(tasks)
        if serial_fallback_reason(self.jobs, len(tasks)) is not None:
            # A pool cannot pay for itself here (one effective worker, or a
            # single-CPU host where workers would just time-slice); run
            # in-process so the result is still produced the same way.
            return SerialExecutor(
                retries=self.retries, retry_backoff=self.retry_backoff
            ).run_tasks(fn, tasks, progress)
        results: List[Any] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        rebuilds = 0
        context = self._pool_context()
        while pending:
            jobs = min(self.jobs, len(pending))
            broken = False
            still_pending: List[int] = []
            pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
            try:
                futures = []
                unsubmitted: List[int] = []
                for position, index in enumerate(pending):
                    try:
                        future = pool.submit(
                            call_with_retries,
                            fn,
                            tasks[index],
                            self.retries,
                            self.retry_backoff,
                        )
                    except BrokenProcessPool:
                        # A worker died before every task was submitted:
                        # handled like a death at result time, so every
                        # unfinished task goes to the next incarnation.
                        broken = True
                        unsubmitted = pending[position:]
                        break
                    futures.append((index, future))
                for index, future in futures:
                    if broken:
                        # The pool already died; everything not yet consumed
                        # goes to the next incarnation.
                        future.cancel()
                        still_pending.append(index)
                        continue
                    try:
                        results[index] = future.result(timeout=RESULT_DEADLINE_S)
                    except BrokenProcessPool:
                        # A worker died mid-task (not a task exception, which
                        # pickles back and propagates below): infrastructure
                        # fault, resubmit the unfinished work.
                        broken = True
                        still_pending.append(index)
                        continue
                    except FutureTimeout:
                        raise PoolTaskTimeout(
                            f"{_describe_task(index, tasks[index])} produced no "
                            f"result within {RESULT_DEADLINE_S:g}s; its worker "
                            "is stuck, so the pool was terminated"
                        ) from None
                    if progress is not None:
                        progress(index, tasks[index], results[index])
                still_pending.extend(unsubmitted)
            except BaseException:
                _terminate_workers(pool)
                raise
            pool.shutdown(wait=True)
            if not broken:
                return results
            rebuilds += 1
            if rebuilds > MAX_POOL_REBUILDS:
                raise BrokenProcessPool(
                    f"worker pool died {rebuilds} times running "
                    f"{len(still_pending)} unfinished task(s); giving up after "
                    f"{MAX_POOL_REBUILDS} rebuild(s) — a task is likely "
                    "killing its worker deterministically"
                )
            pending = still_pending
        return results
