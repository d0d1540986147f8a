"""Coroutine drivers for monitor entry: ``await`` instead of blocking.

Monitor code is synchronous — entry methods block in ``wait_until`` through
``ConditionAPI.wait``.  A coroutine waiter on the asyncio backend or the
simulation kernel must suspend instead of blocking its OS thread, so this
module re-drives the exact entry protocol with ``await``-able primitives:

* :func:`monitor_entry` — async context manager mirroring
  ``MonitorBase._enter`` / ``_leave`` (stats, owner bookkeeping, traces,
  and the policy's ``on_monitor_exit`` relay on the way out), with
  :func:`enter_async` as its entry half;
* :func:`wait_until_async` — ``AutoSynchMonitor.wait_until``: the same
  preamble (``_wait_steps``) and the signalling policy's one wait loop
  (:meth:`~repro.core.signalling.SignallingPolicy.wait_steps`);
* :func:`wait_on_async` — ``ExplicitMonitor.wait_on``: the same single
  park request (``_wait_on_steps``);
* :func:`run_action` — one compiled scenario action (binds → pre → guard
  → effects), the coroutine twin of the generated entry methods.

A wait is a generator of ``(condition, timeout)`` park requests, and two
drivers run it: ``MonitorBase._park_blocking`` blocks on
``condition.wait``, and :func:`_park` here awaits ``condition.wait_async``.
So relay ordering, spurious-wakeup handling, timeout deadlines and
validate-mode checks cannot diverge between blocking and coroutine
waiters.  Requires a backend whose primitives expose ``acquire_async`` /
``wait_async`` (the asyncio backend and the simulation kernel); anything
else fails fast with :class:`~repro.core.errors.MonitorUsageError`.  The
coroutine twins both backends run (:mod:`repro.preprocessor.twins`) are
built on these drivers.
"""

from __future__ import annotations

from typing import Awaitable, Optional

from repro.core.errors import MonitorUsageError
from repro.core.monitor import _raw_setattr

__all__ = [
    "enter_async",
    "monitor_entry",
    "wait_until_async",
    "wait_on_async",
    "run_action",
]


def _require_async_backend(monitor, primitive: object, operation: str) -> None:
    if not hasattr(primitive, f"{operation}"):
        raise MonitorUsageError(
            f"backend {monitor.backend.name!r} does not support coroutine "
            f"waiters (its primitives have no {operation!r}); run coroutine "
            "workloads on the 'asyncio' backend"
        )


async def enter_async(monitor, method_name: str = "coroutine-entry") -> None:
    """The awaitable twin of ``MonitorBase._enter``: acquire the monitor
    mutex with ``await`` and take ownership for the current task; leave
    with the synchronous ``monitor._leave`` (which never blocks)."""
    mutex = monitor._mutex
    _require_async_backend(monitor, mutex, "acquire_async")
    monitor.stats.entries += 1
    await mutex.acquire_async()
    _raw_setattr(monitor, "_owner_id", monitor.backend.current_id())
    monitor._trace("enter", detail=method_name)


class monitor_entry:
    """``async with monitor_entry(monitor, "name"):`` — one monitor entry.

    The coroutine twin of ``MonitorBase._enter`` / ``_leave``: acquires the
    monitor mutex with ``await``, sets the owner to the current task, and on
    exit — raising or not — runs the policy's monitor-exit relay before
    releasing, exactly like a synchronous entry method return.
    """

    def __init__(self, monitor, method_name: str = "coroutine-entry") -> None:
        self._monitor = monitor
        self._method_name = method_name

    async def __aenter__(self):
        await enter_async(self._monitor, self._method_name)
        return self._monitor

    async def __aexit__(self, *exc_info: object) -> bool:
        self._monitor._leave(self._method_name)
        return False


async def _park(monitor, steps) -> None:
    """The awaiting driver of a wait: run *steps*, a generator of
    ``(condition, timeout)`` park requests (None: nothing to wait for).

    The coroutine twin of ``MonitorBase._park_blocking``: each park drops
    ownership, awaits ``condition.wait_async``, takes ownership back and
    sends the ``notified`` flag to the generator.  It is the only coroutine
    frame a parked waiter keeps for its wait, beside the condition's own
    ``wait_async``.
    """
    if steps is None:
        return
    notified = None
    try:
        while True:
            try:
                condition, timeout = steps.send(notified)
            except StopIteration:
                return
            _require_async_backend(monitor, condition, "wait_async")
            _raw_setattr(monitor, "_owner_id", None)
            try:
                notified = await condition.wait_async(timeout)
            finally:
                _raw_setattr(monitor, "_owner_id", monitor.backend.current_id())
    finally:
        steps.close()


def wait_until_async(
    monitor, predicate: str, timeout: Optional[float] = None, **local_values: object
) -> Awaitable[None]:
    """``monitor.wait_until(...)`` for a coroutine holding the monitor.

    Must be called inside :func:`monitor_entry` (the monitor lock held by
    the current task), and awaited.  Semantics — globalization,
    relay-before-wait, spurious wakeups, ``WaitTimeout`` in the backend's
    time units — are the monitor's own ``_wait_steps`` and the signalling
    policy's ``wait_steps`` loop, so they are identical to the blocking
    path by construction.  A plain function: the coroutine it returns is
    :func:`_park`'s, so a parked waiter keeps no frame of its own here.
    """
    return _park(monitor, monitor._wait_steps(predicate, timeout, local_values))


def wait_on_async(monitor, condition) -> Awaitable[None]:
    """``monitor.wait_on(condition)`` for a coroutine holding an explicit
    monitor, to be awaited: the same stats and traces, through the same
    park request (``ExplicitMonitor._wait_on_steps``)."""
    return _park(monitor, monitor._wait_on_steps(condition))


async def run_action(monitor, action: str, **local_values: object) -> None:
    """Run one compiled scenario action as a coroutine.

    The coroutine twin of the entry methods ``compile_scenario_monitor``
    generates: one monitor entry running binds → pre-effects → guard (via
    :func:`wait_until_async`) → effects, against the same precompiled
    ``_ActionRuntime`` table, so a coroutine workload exercises exactly the
    predicate pipeline a threaded workload does.
    """
    runtimes = getattr(type(monitor), "_action_runtimes", None)
    if not runtimes:
        raise MonitorUsageError(
            f"{type(monitor).__name__} is not a scenario-compiled monitor; "
            "run_action only drives compiled scenario actions"
        )
    runtime = runtimes.get(action)
    if runtime is None:
        raise MonitorUsageError(
            f"scenario monitor {type(monitor).__name__} has no action "
            f"{action!r}; actions: {sorted(runtimes)}"
        )
    if monitor._holds_monitor():
        raise MonitorUsageError(
            "run_action may not be nested inside a monitor entry"
        )
    await enter_async(monitor, action)
    try:
        for name, bind in runtime.binds:
            local_values[name] = bind(monitor, local_values)
        for assignment in runtime.pre:
            assignment.apply(monitor, local_values)
        if runtime.guard is not None:
            await wait_until_async(monitor, runtime.guard, **local_values)
        for assignment in runtime.effect:
            assignment.apply(monitor, local_values)
    finally:
        monitor._leave(action)
