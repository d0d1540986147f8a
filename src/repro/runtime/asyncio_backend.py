"""Event-loop backend: each waiter is a coroutine task, not an OS thread.

``ThreadingBackend`` tops out at a few thousand OS threads, so the relay
machinery's sublinear pass cost can never be demonstrated at service scale.
This backend hosts 10^5-10^6 waiters by making every waiter an ``asyncio``
task: locks and condition variables keep their state under a cheap
``threading.Lock`` and park waiters as a FIFO of bare per-waiter futures, so
a ``notify_n(k)`` is one pass popping k futures and one batch of
resolutions.  A parked waiter is kept small on purpose: at 10^5 waiters
every object it holds is one more the cyclic garbage collector walks on
each full collection.

The backend is a hybrid, because monitor code is synchronous:

* **Coroutine targets** (``async def``) run as tasks on one event loop and
  enter monitors through the coroutine driver
  (:mod:`repro.core.async_driver`), which awaits :meth:`_AsyncioLock.
  acquire_async` / :meth:`_AsyncioCondition.wait_async` instead of blocking.
* **Plain callables** run on bridged OS threads (exactly like the threading
  backend) and may call the ordinary blocking ``acquire``/``wait``; their
  futures are ``concurrent.futures.Future`` objects resolved directly.

Both kinds of waiter share the same FIFO queues, so mixed workloads — a
million parked coroutines woken by a handful of real threads, or vice versa
— keep strict FIFO wakeup order across the boundary.  Time is wall-clock
seconds (:meth:`Backend.now`), the same unit the threading backend uses.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextvars
import threading
from collections import deque
from typing import Callable, Deque, Optional, Sequence

from repro.runtime.api import Backend, ConditionAPI, LockAPI, ThreadHandle

__all__ = ["AsyncioBackend"]


#: A parked waiter is its bare future: a ``concurrent.futures.Future`` for a
#: bridged thread (resolvable from any thread), or an ``asyncio.Future`` for
#: a coroutine (resolved through ``future.get_loop().call_soon_threadsafe``
#: when woken from another thread).
_ThreadFuture = concurrent.futures.Future


def _set_result_safe(future) -> None:
    # A waiter may have timed out (future cancelled) between being popped
    # from the queue and this callback running; the pop already decided the
    # wait counts as notified, so a done future just means nothing to do.
    if not future.done():
        future.set_result(True)


class _AsyncioLock(LockAPI):
    """FIFO mutex shared by coroutine and bridged-thread waiters.

    Release hands the lock directly to the head of the queue (the lock never
    becomes free while waiters are queued), so wakeup order is strict FIFO
    and no barging thread can starve a parked coroutine.
    """

    def __init__(self, backend: "AsyncioBackend", label: Optional[str] = None) -> None:
        self._backend = backend
        self.label = label
        self._state = threading.Lock()
        self._locked = False
        self._queue: Deque = deque()

    def acquire(self) -> None:
        backend = self._backend
        with self._state:
            if not self._locked:
                self._locked = True
                backend._record("lock_acquisitions")
                return
            if backend._on_loop_thread():
                raise RuntimeError(
                    "blocking acquire of a contended asyncio-backend lock from "
                    "the event-loop thread; coroutine waiters must go through "
                    "the coroutine driver (acquire_async)"
                )
            waiter = _ThreadFuture()
            self._queue.append(waiter)
            backend._record("lock_contentions")
        waiter.result()
        backend._record("lock_acquisitions")
        backend._record("context_switches")

    async def acquire_async(self) -> None:
        backend = self._backend
        with self._state:
            if not self._locked:
                self._locked = True
                backend._record("lock_acquisitions")
                return
            waiter = asyncio.get_running_loop().create_future()
            self._queue.append(waiter)
            backend._record("lock_contentions")
        await waiter
        backend._record("lock_acquisitions")
        backend._record("context_switches")

    def release(self) -> None:
        with self._state:
            if not self._locked:
                raise RuntimeError("release of an unheld asyncio-backend lock")
            if self._queue:
                waiter = self._queue.popleft()  # direct handoff: stays locked
            else:
                self._locked = False
                waiter = None
        if waiter is not None:
            self._backend._resolve(waiter)

    @property
    def locked(self) -> bool:
        with self._state:
            return self._locked


class _AsyncioCondition(ConditionAPI):
    """Condition variable over a FIFO deque of per-waiter futures."""

    __slots__ = ("_backend", "_lock", "label", "_state", "_waiters")

    def __init__(
        self,
        backend: "AsyncioBackend",
        lock: _AsyncioLock,
        label: Optional[str] = None,
    ) -> None:
        self._backend = backend
        self._lock = lock
        self.label = label
        # Shares the lock's state mutex: a waiter enqueues itself *before*
        # releasing the monitor lock, so a notify between release and park
        # can never be missed.
        self._state = lock._state
        self._waiters: Deque = deque()

    def _discard(self, waiter) -> bool:
        """Remove *waiter* after a timeout; False means a concurrent notify
        already popped it (the notification wins, the wait counts as
        notified)."""
        with self._state:
            try:
                self._waiters.remove(waiter)
            except ValueError:
                return False
            return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        backend = self._backend
        if backend._on_loop_thread():
            raise RuntimeError(
                "blocking wait on the event-loop thread; coroutine waiters "
                "must go through the coroutine driver (wait_async)"
            )
        backend._record("condition_waits")
        waiter = _ThreadFuture()
        with self._state:
            self._waiters.append(waiter)
        self._lock.release()
        notified = True
        try:
            waiter.result(timeout)
        except concurrent.futures.TimeoutError:
            notified = not self._discard(waiter)
        backend._record("context_switches")
        self._lock.acquire()
        return notified

    async def wait_async(self, timeout: Optional[float] = None) -> bool:
        backend = self._backend
        backend._record("condition_waits")
        waiter = asyncio.get_running_loop().create_future()
        with self._state:
            self._waiters.append(waiter)
        self._lock.release()
        notified = True
        try:
            if timeout is None:
                await waiter
            else:
                await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            notified = not self._discard(waiter)
        backend._record("context_switches")
        await self._lock.acquire_async()
        return notified

    def _pop_waiters(self, n: Optional[int]) -> list:
        with self._state:
            if n is None:
                popped = list(self._waiters)
                self._waiters.clear()
            else:
                popped = [
                    self._waiters.popleft()
                    for _ in range(min(n, len(self._waiters)))
                ]
        return popped

    def notify(self) -> None:
        backend = self._backend
        backend._record("notifies")
        popped = self._pop_waiters(1)
        if popped:
            backend._record("notified_threads")
            backend._resolve(popped[0])

    def notify_n(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"notify_n requires n >= 0, got {n}")
        if n == 0:
            return
        backend = self._backend
        backend._record("notifies")
        popped = self._pop_waiters(n)
        if popped:
            backend._record("notified_threads", len(popped))
            backend._resolve_batch(popped)

    def notify_all(self) -> None:
        backend = self._backend
        backend._record("notify_alls")
        popped = self._pop_waiters(None)
        if popped:
            backend._record("notified_threads", len(popped))
            backend._resolve_batch(popped)

    def waiter_count(self) -> int:
        with self._state:
            return len(self._waiters)


class _AsyncioThreadHandle(ThreadHandle):
    """Handle for a bridged OS thread."""

    def __init__(self, thread: threading.Thread) -> None:
        self._thread = thread

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    @property
    def name(self) -> str:
        return self._thread.name

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()


class _AsyncioTaskHandle(ThreadHandle):
    """Handle for a coroutine task; joinable only after ``run`` returned."""

    def __init__(self, task: "asyncio.Task", name: str) -> None:
        self._task = task
        self._name = name

    def join(self, timeout: Optional[float] = None) -> None:
        """Return at once: ``run`` waits for every coroutine task before it
        returns, the targets it was given and any task spawned while it
        ran, so by the time code outside the loop can join, the task has
        finished."""
        del timeout

    @property
    def name(self) -> str:
        return self._name

    @property
    def alive(self) -> bool:
        return not self._task.done()


class AsyncioBackend(Backend):
    """Backend hosting waiters as coroutine tasks on one event loop."""

    name = "asyncio"
    description = "event-loop tasks as waiters; scales to 10^5-10^6 parked waiters (seconds)"
    time_unit = "seconds"

    def __init__(self) -> None:
        super().__init__()
        self._metrics_lock = threading.Lock()
        self._failures: list[BaseException] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread_id: Optional[int] = None
        #: Coroutine tasks started and not yet finished (loop thread only).
        #: The set is also the strong reference the loop does not keep.
        self._live_tasks: set = set()
        #: Resolved when the last task leaves ``_live_tasks``.
        self._all_done: Optional[asyncio.Future] = None
        #: ``_task_done`` bound once, and the one context it runs in.
        self._on_task_done: Optional[Callable] = None
        self._done_context: Optional[contextvars.Context] = None

    # -- internals ---------------------------------------------------------

    def _record(self, counter: str, amount: int = 1) -> None:
        with self._metrics_lock:
            setattr(self.metrics, counter, getattr(self.metrics, counter) + amount)

    def _on_loop_thread(self) -> bool:
        return (
            self._loop_thread_id is not None
            and self._loop_thread_id == threading.get_ident()
        )

    def _resolve(self, waiter) -> None:
        if type(waiter) is _ThreadFuture or self._on_loop_thread():
            _set_result_safe(waiter)
        else:
            waiter.get_loop().call_soon_threadsafe(_set_result_safe, waiter)

    def _resolve_batch(self, waiters: Sequence) -> None:
        """Resolve a bulk wakeup: loop-local futures in one pass, foreign-
        loop futures through a single scheduled callback per loop."""
        foreign: dict = {}
        on_loop = self._on_loop_thread()
        for waiter in waiters:
            if on_loop or type(waiter) is _ThreadFuture:
                _set_result_safe(waiter)
            else:
                foreign.setdefault(waiter.get_loop(), []).append(waiter)
        for loop, futures in foreign.items():
            loop.call_soon_threadsafe(
                lambda batch=futures: [_set_result_safe(f) for f in batch]
            )

    # -- factory API -------------------------------------------------------

    def create_lock(self, label: Optional[str] = None) -> _AsyncioLock:
        return _AsyncioLock(self, label=label)

    def create_condition(
        self, lock: LockAPI, label: Optional[str] = None
    ) -> _AsyncioCondition:
        if not isinstance(lock, _AsyncioLock):
            raise TypeError("an AsyncioBackend condition requires an AsyncioBackend lock")
        return _AsyncioCondition(self, lock, label=label)

    def spawn(
        self,
        target: Callable[[], None],
        name: Optional[str] = None,
    ) -> ThreadHandle:
        """Start *target*: a coroutine function becomes a task on the running
        loop (loop thread only); a plain callable gets a bridged OS thread."""
        if asyncio.iscoroutinefunction(target):
            if not self._on_loop_thread():
                raise RuntimeError(
                    "coroutine targets can only be spawned from inside "
                    "AsyncioBackend.run's event loop"
                )
            return _AsyncioTaskHandle(self._start_task(target, name), name or "task")

        def runner() -> None:
            try:
                target()
            except BaseException as exc:  # propagated to the caller by run()
                with self._metrics_lock:
                    self._failures.append(exc)

        thread = threading.Thread(target=runner, name=name, daemon=True)
        self._record("threads_spawned")
        thread.start()
        return _AsyncioThreadHandle(thread)

    def _start_task(self, target, name: Optional[str]) -> "asyncio.Task":
        self._record("threads_spawned")
        task = self._loop.create_task(target(), name=name)
        self._live_tasks.add(task)
        # One callback object and one context for every task of the run:
        # a fresh bound method or copied Context would be one more object
        # per parked waiter.
        task.add_done_callback(self._on_task_done, context=self._done_context)
        return task

    def _task_done(self, task: "asyncio.Task") -> None:
        """Record *task*'s failure, if any; the last task resolves
        ``_all_done``."""
        if task.cancelled():
            failure: Optional[BaseException] = asyncio.CancelledError()
        else:
            failure = task.exception()
        if failure is not None:
            with self._metrics_lock:
                self._failures.append(failure)
        live = self._live_tasks
        live.discard(task)
        if not live and not self._all_done.done():
            self._all_done.set_result(None)

    def current_id(self) -> object:
        if self._on_loop_thread():
            task = asyncio.current_task()
            if task is not None:
                return task
        return threading.get_ident()

    def run(
        self,
        targets: Sequence[Callable[[], None]],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        """Run all *targets* concurrently and wait for every one.

        Coroutine functions become tasks on a fresh event loop, and ``run``
        also waits for every coroutine task they spawn while it runs; plain
        callables run on bridged threads alongside it.  With no coroutine
        target at all there is no loop: the run degenerates to plain
        threads over the same future-FIFO primitives, which is how the
        backend hosts unmodified (synchronous) problem workloads.
        """
        self._failures = []
        if any(asyncio.iscoroutinefunction(target) for target in targets):
            asyncio.run(self._run_async(targets, names))
        else:
            handles = []
            for index, target in enumerate(targets):
                name = names[index] if names else f"worker-{index}"
                handles.append(self.spawn(target, name=name))
            for handle in handles:
                handle.join()
        if self._failures:
            raise self._failures[0]

    async def _run_async(
        self,
        targets: Sequence[Callable[[], None]],
        names: Optional[Sequence[str]],
    ) -> None:
        """Start every target and wait until all have finished.

        Coroutine tasks are counted rather than gathered: each task's one
        done-callback (:meth:`_task_done`, bound once and run in one shared
        context) records its failure and drops it from ``_live_tasks``, and
        the last one resolves ``_all_done``.  ``asyncio.gather`` would add
        a second callback and a copied ``Context`` per task, and a wrapper
        coroutine around each target would add one more frame to every
        parked waiter.  Because ``spawn`` adds the tasks it starts mid-run
        to the set, those are waited for too instead of being cancelled at
        loop exit.  A failing task is recorded and the others run on, so
        the wait ends only when every task has.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._loop_thread_id = threading.get_ident()
        self._live_tasks = set()
        self._all_done = loop.create_future()
        self._on_task_done = self._task_done
        self._done_context = contextvars.copy_context()
        handles = []
        try:
            for index, target in enumerate(targets):
                name = names[index] if names else f"worker-{index}"
                if asyncio.iscoroutinefunction(target):
                    self._start_task(target, name)
                else:
                    handles.append(self.spawn(target, name=name))
            if self._live_tasks:
                await self._all_done
            if handles:
                await asyncio.to_thread(self._join_handles, handles)
        finally:
            self._loop = None
            self._loop_thread_id = None
            self._all_done = None
            self._on_task_done = None
            self._done_context = None

    @staticmethod
    def _join_handles(handles: Sequence[ThreadHandle]) -> None:
        for handle in handles:
            handle.join()
