"""Event-loop backend: each waiter is a coroutine task, not an OS thread.

``ThreadingBackend`` tops out at a few thousand OS threads, so the relay
machinery's sublinear pass cost can never be demonstrated at service scale.
This backend hosts 10^5-10^6 waiters by making every waiter an ``asyncio``
task on one event loop: locks and condition variables park waiters as a
FIFO of bare per-waiter futures, so a ``notify_n(k)`` is one pass popping k
futures and resolving them.  A parked waiter is kept small on purpose: at
10^5 waiters every object it holds is one more the cyclic garbage collector
walks on each full collection.

Every target runs as a task on the loop :meth:`AsyncioBackend.run` starts on
the calling OS thread, exactly as the simulation kernel hosts its threads:

* **Coroutine targets** (``async def``) run as they are and enter monitors
  through the coroutine driver (:mod:`repro.core.async_driver`), which
  awaits :meth:`_AsyncioLock.acquire_async` /
  :meth:`_AsyncioCondition.wait_async` instead of blocking.
* **Plain functions** run as the coroutine twins generated from their source
  (:mod:`repro.preprocessor.twins`); a plain callable without a twin is
  refused before any task starts.

Only the OS thread running ``run``, while it runs, may acquire, release,
wait on or notify the backend's primitives, or spawn: each checks that with
one compare of thread idents and raises ``RuntimeError`` otherwise, so no
primitive takes a lock.  The blocking ``acquire``/``wait`` forms always
raise, naming their ``*_async`` form.  Real OS threads sharing a monitor
are the threading backend's to host.  Time is wall-clock seconds
(:meth:`Backend.now`), the same unit the threading backend uses.

Only a task can wake a parked one, so when every live task is parked with
no timeout the run is stuck for good: ``run`` then cancels the tasks and
raises a ``deadlock:`` ``RuntimeError`` naming each and what it waits on.
"""

from __future__ import annotations

import asyncio
import contextvars
from collections import deque
from threading import get_ident
from typing import Callable, Deque, NoReturn, Optional, Sequence

from repro.runtime.api import Backend, ConditionAPI, LockAPI, ThreadHandle

__all__ = ["AsyncioBackend"]


def _set_result_safe(future) -> None:
    # A waiter may have timed out (future cancelled) between being popped
    # from the queue and this call; the pop already decided the wait counts
    # as notified, so a done future just means nothing to do.
    if not future.done():
        future.set_result(True)


def _unpark(backend: "AsyncioBackend", queue: Deque, waiter) -> bool:
    """Take a waiter that stopped waiting (timed out or cancelled) out of
    its queue; False when a hand-off or notify had already popped it."""
    try:
        queue.remove(waiter)
    except ValueError:
        return False
    backend._parked -= 1
    return True


class _AsyncioLock(LockAPI):
    """FIFO mutex over a deque of per-waiter futures.

    Release hands the lock directly to the head of the queue (the lock never
    becomes free while waiters are queued), so wakeup order is strict FIFO
    and no barging task can starve a parked one.
    """

    def __init__(self, backend: "AsyncioBackend", label: Optional[str] = None) -> None:
        self._backend = backend
        self.label = label
        self._locked = False
        self._queue: Deque = deque()

    def acquire(self) -> None:
        """Refused: a task awaits :meth:`acquire_async` (a plain body's twin
        does so in its place)."""
        self._backend._refuse_blocking("acquire")

    async def acquire_async(self) -> None:
        backend = self._backend
        if get_ident() != backend._owner:
            backend._refuse_foreign()
        if not self._locked:
            self._locked = True
            backend.metrics.lock_acquisitions += 1
            return
        waiter = backend._loop.create_future()
        self._queue.append(waiter)
        backend.metrics.lock_contentions += 1
        backend._park()
        try:
            await waiter
        except asyncio.CancelledError:
            if not _unpark(backend, self._queue, waiter):
                # A release had already handed this task the lock: pass it
                # on, or it stays held by a task that never resumes.
                self.release()
            raise
        backend.metrics.lock_acquisitions += 1
        backend.metrics.context_switches += 1

    def release(self) -> None:
        if get_ident() != self._backend._owner:
            self._backend._refuse_foreign()
        if not self._locked:
            raise RuntimeError("release of an unheld asyncio-backend lock")
        if self._queue:
            self._backend._parked -= 1
            _set_result_safe(self._queue.popleft())  # direct handoff: stays locked
        else:
            self._locked = False

    @property
    def locked(self) -> bool:
        return self._locked


class _AsyncioCondition(ConditionAPI):
    """Condition variable over a FIFO deque of per-waiter futures."""

    __slots__ = ("_backend", "_lock", "label", "_waiters")

    def __init__(
        self,
        backend: "AsyncioBackend",
        lock: _AsyncioLock,
        label: Optional[str] = None,
    ) -> None:
        self._backend = backend
        self._lock = lock
        self.label = label
        self._waiters: Deque = deque()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Refused: a task awaits :meth:`wait_async` (a plain body's twin
        does so in its place)."""
        self._backend._refuse_blocking("wait")

    async def wait_async(self, timeout: Optional[float] = None) -> bool:
        backend = self._backend
        if get_ident() != backend._owner:
            backend._refuse_foreign()
        backend.metrics.condition_waits += 1
        # Released before the waiter is enqueued: nothing else runs until
        # this task awaits, so no notify can fall in between, and a failed
        # release leaves no waiter behind.
        self._lock.release()
        waiter = backend._loop.create_future()
        self._waiters.append(waiter)
        notified = True
        try:
            if timeout is None:
                backend._park()
                await waiter
            else:
                backend._parked += 1
                backend._timed += 1
                try:
                    await asyncio.wait_for(waiter, timeout)
                finally:
                    backend._timed -= 1
        except asyncio.TimeoutError:
            # False unless a notify popped the waiter while the timeout was
            # being delivered: then the notification wins.
            notified = not _unpark(backend, self._waiters, waiter)
        except asyncio.CancelledError:
            # Unwind holding the lock, as ``asyncio.Condition.wait`` does:
            # the caller's cleanup (waiter deregistration, the monitor's
            # exit relay and release) runs as the lock's holder, however
            # often the task is cancelled while queued for it.  Only a
            # deadlock's teardown unwinds without it: there the lock may
            # belong to a task that will never release it.
            _unpark(backend, self._waiters, waiter)
            while backend._deadlock is None:
                try:
                    await self._lock.acquire_async()
                    break
                except asyncio.CancelledError:
                    pass
            raise
        backend.metrics.context_switches += 1
        await self._lock.acquire_async()
        return notified

    def notify(self) -> None:
        self.notify_n(1)

    def notify_n(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"notify_n requires n >= 0, got {n}")
        if n == 0:
            return
        backend = self._backend
        if get_ident() != backend._owner:
            backend._refuse_foreign()
        backend.metrics.notifies += 1
        self._wake(min(n, len(self._waiters)))

    def notify_all(self) -> None:
        backend = self._backend
        if get_ident() != backend._owner:
            backend._refuse_foreign()
        backend.metrics.notify_alls += 1
        self._wake(len(self._waiters))

    def _wake(self, count: int) -> None:
        """Resolve the futures of the *count* longest waiters."""
        backend = self._backend
        backend.metrics.notified_threads += count
        backend._parked -= count
        waiters = self._waiters
        for _ in range(count):
            _set_result_safe(waiters.popleft())

    def waiter_count(self) -> int:
        return len(self._waiters)


class _AsyncioTaskHandle(ThreadHandle):
    """Handle for a coroutine task; joinable only after ``run`` returned."""

    def __init__(self, task: "asyncio.Task", name: str) -> None:
        self._task = task
        self._name = name

    def join(self, timeout: Optional[float] = None) -> None:
        """Return at once: ``run`` waits for every task before it returns,
        the targets it was given and any task spawned while it ran, so by
        the time code outside the loop can join, the task has finished."""
        del timeout

    @property
    def name(self) -> str:
        return self._name

    @property
    def alive(self) -> bool:
        return not self._task.done()


def _parked_on(task: "asyncio.Task") -> Optional[str]:
    """Name the lock or condition *task* is parked on: the ``self`` of the
    innermost coroutine it awaits through (None when that is neither)."""
    coro = task.get_coro()
    while hasattr(coro.cr_await, "cr_frame"):
        coro = coro.cr_await
    frame = coro.cr_frame  # None once the coroutine has returned
    primitive = frame.f_locals.get("self") if frame is not None else None
    if not isinstance(primitive, (_AsyncioLock, _AsyncioCondition)):
        return None
    kind = "lock" if isinstance(primitive, _AsyncioLock) else "condition"
    return f"{kind} {primitive.label or f'{id(primitive):#x}'}"


class AsyncioBackend(Backend):
    """Backend hosting waiters as coroutine tasks on one event loop."""

    name = "asyncio"
    description = "event-loop tasks as waiters; scales to 10^5-10^6 parked waiters (seconds)"
    time_unit = "seconds"

    def __init__(self) -> None:
        super().__init__()
        self._failures: list[BaseException] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The ident of the OS thread running :meth:`run`, None between
        #: runs: the only thread that may call a primitive.
        self._owner: Optional[int] = None
        #: Tasks started and not yet finished.  The set is also the strong
        #: reference the loop does not keep.
        self._live_tasks: set = set()
        #: Resolved when the last task leaves ``_live_tasks``.
        self._all_done: Optional[asyncio.Future] = None
        #: ``_task_done`` bound once, and the one context it runs in.
        self._on_task_done: Optional[Callable] = None
        self._done_context: Optional[contextvars.Context] = None
        #: Futures in lock and condition queues, tasks in a timed wait, and
        #: the ``deadlock:`` message once every live task is parked for good.
        self._parked = self._timed = 0
        self._deadlock: Optional[str] = None

    # -- internals ---------------------------------------------------------

    def _refuse_foreign(self) -> NoReturn:
        raise RuntimeError(
            "asyncio-backend primitives may only be used inside "
            "AsyncioBackend.run, from the OS thread running it"
        )

    def _refuse_blocking(self, primitive: str) -> NoReturn:
        raise RuntimeError(
            f"every thread of an asyncio-backend run is a task on its event "
            f"loop and must await the {primitive}_async primitive instead of "
            f"calling the blocking {primitive}()"
        )

    def _park(self) -> None:
        """Count one more future parked with no timeout; if every live task
        is now parked, check once the loop has run what is ready."""
        self._parked += 1
        if self._parked == len(self._live_tasks) and not self._timed:
            self._loop.call_soon(self._check_deadlock)

    def _check_deadlock(self) -> None:
        """If every live task is parked with no timeout, record the
        ``deadlock:`` message and cancel them all (again, should one park
        anew while it unwinds)."""
        live = self._live_tasks
        if not live or self._parked != len(live) or self._timed:
            return
        if self._deadlock is None:
            parked = sorted((task.get_name(), _parked_on(task)) for task in live)
            if not all(on for _, on in parked):
                return
            details = ", ".join(f"{name} (waiting on {on})" for name, on in parked)
            self._deadlock = (
                f"deadlock: all {len(parked)} live tasks are parked with no timeout — {details}"
            )
        for task in live:
            task.cancel()

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
        """Start *target* as a task on the running loop: a coroutine
        function as it is, a plain function as its coroutine twin.  Only a
        task of a running :meth:`run` may spawn."""
        from repro.preprocessor.twins import coroutine_bodies  # twins imports this module

        if get_ident() != self._owner:
            self._refuse_foreign()
        name = name or "task"
        body = coroutine_bodies([target], [name], RuntimeError)[0]
        return _AsyncioTaskHandle(self._start_task(body, name), name)

    def _start_task(self, body, name: str) -> "asyncio.Task":
        self.metrics.threads_spawned += 1
        task = self._loop.create_task(body(), name=name)
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
            self._failures.append(failure)
        live = self._live_tasks
        live.discard(task)
        if live:
            self._check_deadlock()
        elif not self._all_done.done():
            self._all_done.set_result(None)

    def current_id(self) -> object:
        if get_ident() != self._owner:
            self._refuse_foreign()
        return asyncio.current_task()

    def run(
        self,
        targets: Sequence[Callable[[], None]],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        """Run all *targets* as tasks on a fresh event loop and wait for every
        one, and for every task they spawn while it runs.

        A plain function runs as its coroutine twin; ``RuntimeError`` names
        the first target without one, and why, before any task starts.  The
        first exception raised in a task is re-raised here, unless the run
        deadlocked: that raises its ``deadlock:`` ``RuntimeError`` first.
        """
        from repro.preprocessor.twins import coroutine_bodies  # twins imports this module

        if self._owner is not None:
            raise RuntimeError("run() called while a run is already in progress")
        names = [names[index] if names else f"worker-{index}" for index in range(len(targets))]
        bodies = coroutine_bodies(targets, names, RuntimeError)
        self._failures = []
        self._parked = self._timed = 0
        self._deadlock = None
        asyncio.run(self._run_async(bodies, names))
        if self._deadlock is not None:
            raise RuntimeError(self._deadlock)
        if self._failures:
            raise self._failures[0]

    async def _run_async(self, bodies: Sequence[Callable], names: Sequence[str]) -> None:
        """Start every body and wait until all have finished.

        Tasks are counted rather than gathered: each task's one
        done-callback (:meth:`_task_done`, bound once and run in one shared
        context) records its failure and drops it from ``_live_tasks``, and
        the last one resolves ``_all_done``.  ``asyncio.gather`` would add
        a second callback and a copied ``Context`` per task, and a wrapper
        coroutine around each body would add one more frame to every
        parked waiter.  Because ``spawn`` adds the tasks it starts mid-run
        to the set, those are waited for too instead of being cancelled at
        loop exit.  A failing task is recorded and the others run on, so
        the wait ends only when every task has.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._owner = get_ident()
        self._live_tasks = set()
        self._all_done = loop.create_future()
        self._on_task_done = self._task_done
        self._done_context = contextvars.copy_context()
        try:
            for body, name in zip(bodies, names):
                self._start_task(body, name)
            if self._live_tasks:
                await self._all_done
        finally:
            self._loop = None
            self._owner = None
            self._all_done = None
            self._on_task_done = None
            self._done_context = None
