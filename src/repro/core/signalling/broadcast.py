"""The broadcast-everything baseline as a policy (§6.2).

One condition variable for the whole monitor; every monitor exit (including
going to wait) wakes every waiter, and each woken thread re-evaluates its own
predicate.  This is the classic automatic-signal monitor the paper compares
against: trivially correct, but its wake-ups scale with the number of
waiters instead of the number of satisfied predicates.
"""

from __future__ import annotations

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

    def _enlist(self, compiled, local_values):
        return self._condition, compiled.source, compiled, local_values, None

    def _hand_off(self) -> None:
        monitor = self.monitor
        monitor.stats.signal_alls_sent += 1
        monitor._trace("signal_all")
        self._condition.notify_all()
