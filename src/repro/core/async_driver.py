"""Coroutine drivers for monitor entry: ``await`` instead of blocking.

Monitor code is synchronous — entry methods block in ``wait_until`` through
``ConditionAPI.wait``.  A coroutine waiter on the asyncio backend must
suspend instead of blocking the event loop, so this module re-drives the
exact entry protocol with ``await``-able primitives:

* :func:`monitor_entry` — async context manager mirroring
  ``MonitorBase._enter`` / ``_leave`` (stats, owner bookkeeping, traces,
  and the policy's ``on_monitor_exit`` relay on the way out), with
  :func:`enter_async` as its entry half;
* :func:`wait_until_async` — ``AutoSynchMonitor.wait_until`` driven over
  the signalling policy's :meth:`~repro.core.signalling.SignallingPolicy.
  wait_steps` generator, awaiting ``condition.wait_async`` at each park;
* :func:`wait_on_async` — ``ExplicitMonitor.wait_on``, awaiting the
  condition instead of blocking on it;
* :func:`run_action` — one compiled scenario action (binds → pre → guard
  → effects), the coroutine twin of the generated entry methods.

Because the wait loop itself lives in ``wait_steps`` — shared verbatim with
the blocking ``on_wait`` driver — relay ordering, spurious-wakeup handling,
timeout deadlines and validate-mode checks cannot diverge between sync and
coroutine waiters.  Requires a backend whose primitives expose
``acquire_async`` / ``wait_async`` (the asyncio backend and the simulation
kernel); anything else fails fast with
:class:`~repro.core.errors.MonitorUsageError`.  The coroutine twins the
simulation kernel steps (:mod:`repro.preprocessor.twins`) are built on
these drivers.
"""

from __future__ import annotations

from typing import Optional

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


async def wait_until_async(
    monitor, predicate: str, timeout: Optional[float] = None, **local_values: object
) -> None:
    """``monitor.wait_until(...)`` for a coroutine holding the monitor.

    Must be called inside :func:`monitor_entry` (the monitor lock held by
    the current task).  Semantics — globalization, relay-before-wait,
    spurious wakeups, ``WaitTimeout`` in the backend's time units — are the
    signalling policy's own ``wait_steps`` generator, so they are identical
    to the blocking path by construction.

    Each park request is awaited inline — the coroutine twin of
    ``_block_on``: drop ownership, await ``condition.wait_async``, take
    ownership back — rather than through a helper coroutine, so a parked
    waiter keeps one coroutine frame fewer alive (on the asyncio backend
    and for the simulation kernel's simulated threads alike).
    """
    monitor._require_monitor_held("wait_until")
    compiled = monitor._compiled(predicate, local_values)
    if monitor._predicate_holds(compiled, local_values):
        return
    if timeout is None:
        timeout = monitor._wait_timeout
    steps = monitor.signalling_policy.wait_steps(
        compiled, local_values, timeout=timeout
    )
    try:
        try:
            condition, remaining = next(steps)
        except StopIteration:
            return
        while True:
            _require_async_backend(monitor, condition, "wait_async")
            _raw_setattr(monitor, "_owner_id", None)
            try:
                notified = await condition.wait_async(remaining)
            finally:
                _raw_setattr(monitor, "_owner_id", monitor.backend.current_id())
            try:
                condition, remaining = steps.send(notified)
            except StopIteration:
                return
    finally:
        steps.close()


async def wait_on_async(monitor, condition) -> None:
    """``monitor.wait_on(condition)`` for a coroutine holding an explicit
    monitor: the same stats and traces, awaiting the condition."""
    monitor._require_monitor_held("wait_on")
    monitor.stats.waits += 1
    label = monitor._condition_label(condition)
    monitor._trace("wait", predicate=label)
    _require_async_backend(monitor, condition, "wait_async")
    _raw_setattr(monitor, "_owner_id", None)
    try:
        await condition.wait_async()
    finally:
        _raw_setattr(monitor, "_owner_id", monitor.backend.current_id())
    monitor.stats.wakeups += 1
    monitor._trace("wakeup", predicate=label)


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
