"""Lock and condition-variable objects for the simulation backend.

These are thin data holders; all queueing and scheduling logic lives in the
kernel, which changes it only on the OS thread running the simulation.  A
simulated thread is a coroutine, so it awaits the blocking operations in
their ``acquire_async``/``wait_async`` forms; the plain ``acquire``/``wait``
of the lock and condition interfaces raise ``SimulationError`` inside a
simulation (a plain body's generated twin awaits the async forms in their
place; see :mod:`repro.runtime.simulation.kernel`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.runtime.api import ConditionAPI, LockAPI

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.runtime.simulation.kernel import SimulationBackend

__all__ = ["SimLock", "SimCondition"]


class SimLock(LockAPI):
    """A mutual-exclusion lock for simulated threads.

    ``label`` is an optional human-readable name; when set, it appears in
    block reasons ("waiting for lock forks[2]"), which flow into deadlock
    messages and recorded schedule traces.
    """

    def __init__(self, kernel: "SimulationBackend", label: Optional[str] = None) -> None:
        self._kernel = kernel
        self.label = label
        self.owner: Optional[int] = None
        self.queue: Deque[int] = deque()

    def acquire(self) -> None:
        self._kernel.lock_acquire(self)

    def acquire_async(self):
        """Awaitable :meth:`acquire`: the form a simulated thread uses."""
        return self._kernel.lock_acquire_async(self)

    def release(self) -> None:
        self._kernel.lock_release(self)


class SimCondition(ConditionAPI):
    """A condition variable for simulated threads.

    A notified thread is moved to the lock's entry queue (it must re-acquire
    the monitor lock before running again), mirroring Java monitor semantics.
    """

    def __init__(
        self,
        kernel: "SimulationBackend",
        lock: SimLock,
        label: Optional[str] = None,
    ) -> None:
        self._kernel = kernel
        self.lock = lock
        self.label = label
        self.waiters: Deque[int] = deque()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._kernel.condition_wait(self, timeout=timeout)

    def wait_async(self, timeout: Optional[float] = None):
        """Awaitable :meth:`wait`: the form a simulated thread uses."""
        return self._kernel.condition_wait_async(self, timeout)

    def notify(self) -> None:
        self._kernel.condition_notify(self, wake_all=False)

    def notify_n(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"notify_n requires n >= 0, got {n}")
        if n == 0:
            return
        self._kernel.condition_notify(self, wake_all=False, count=n)

    def notify_all(self) -> None:
        self._kernel.condition_notify(self, wake_all=True)

    def waiter_count(self) -> int:
        return len(self.waiters)
