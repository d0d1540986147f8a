"""The broadcast-everything baseline as a policy (§6.2).

One condition variable for the whole monitor; every monitor exit (including
going to wait) wakes every waiter, and each woken thread re-evaluates its own
predicate.  This is the classic automatic-signal monitor the paper compares
against: trivially correct, but its wake-ups scale with the number of
waiters instead of the number of satisfied predicates.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.errors import WaitTimeout
from repro.core.signalling.base import SignallingPolicy
from repro.core.signalling.registry import register_policy

__all__ = ["BroadcastPolicy"]


@register_policy
class BroadcastPolicy(SignallingPolicy):
    """Single condition variable, ``notify_all`` on every monitor exit."""

    name = "baseline"
    description = "broadcast everything: one condition variable, notify_all per exit"

    def __init__(self) -> None:
        super().__init__()
        self._condition = None

    def _setup(self, monitor) -> None:
        if self._condition is None:  # a rebind keeps the build's condition
            self._condition = monitor._create_condition()

    def _broadcast(self) -> None:
        stats = self.monitor.stats
        stats.signal_alls_sent += 1
        self.monitor._trace("signal_all")
        self._condition.notify_all()

    def on_wait(
        self,
        compiled,
        local_values: Mapping[str, object],
        timeout: Optional[float] = None,
    ) -> None:
        self._drive_wait(self.wait_steps(compiled, local_values, timeout))

    def wait_steps(
        self,
        compiled,
        local_values: Mapping[str, object],
        timeout: Optional[float] = None,
    ):
        monitor = self.monitor
        stats = monitor.stats
        backend = monitor.backend
        deadline = backend.now() + timeout if timeout is not None else None
        while True:
            # Going to wait is a monitor exit too: wake everybody first.
            self._broadcast()
            stats.waits += 1
            monitor._trace("wait", predicate=compiled.source)
            remaining = (
                max(deadline - backend.now(), 0.0) if deadline is not None else None
            )
            yield self._condition, remaining
            stats.wakeups += 1
            if monitor._predicate_holds(compiled, local_values):
                monitor._trace("wakeup", predicate=compiled.source)
                return
            if deadline is not None and backend.now() >= deadline:
                stats.wait_timeouts += 1
                monitor._trace("wait_timeout", predicate=compiled.source)
                raise WaitTimeout(compiled.source, timeout)
            stats.spurious_wakeups += 1
            monitor._trace("spurious_wakeup", predicate=compiled.source)

    def on_monitor_exit(self) -> None:
        self._broadcast()
