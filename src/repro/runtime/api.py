"""Abstract synchronization API shared by the threading and simulation backends.

The monitors in :mod:`repro.core` and the workload drivers in
:mod:`repro.harness` only ever talk to these interfaces, so the same monitor
code runs on real threads (for wall-clock measurements) and on the
deterministic simulator (for exact context-switch and evaluation counts).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

__all__ = ["LockAPI", "ConditionAPI", "ThreadHandle", "BackendMetrics", "Backend"]


class LockAPI(abc.ABC):
    """A mutual-exclusion lock."""

    @abc.abstractmethod
    def acquire(self) -> None:
        """Block until the lock is held by the calling thread."""

    @abc.abstractmethod
    def release(self) -> None:
        """Release the lock; it must currently be held by the caller."""

    def __enter__(self) -> "LockAPI":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class ConditionAPI(abc.ABC):
    """A condition variable tied to a :class:`LockAPI`."""

    # Lets a backend whose conditions are numerous (one per parked
    # predicate) give them slots instead of an instance dict.
    __slots__ = ()

    @abc.abstractmethod
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Atomically release the lock and block until notified, then
        re-acquire the lock before returning.

        With a *timeout* (in the backend's time units — see
        :meth:`Backend.now`), the wait gives up once the deadline passes and
        returns False; a wait that ended by notification returns True.
        Either way the lock is re-acquired before returning.
        """

    @abc.abstractmethod
    def notify(self) -> None:
        """Wake one thread waiting on this condition (if any)."""

    def notify_n(self, n: int) -> None:
        """Wake up to *n* threads waiting on this condition, in FIFO order.

        The bulk-wakeup contract, identical across backends:

        - wakes ``min(n, waiter_count())`` threads — asking for more than
          are waiting wakes everyone waiting and is not an error;
        - waiters are woken in the order they called :meth:`wait` (FIFO);
        - ``n == 0`` is a no-op (no metrics recorded, no error);
        - ``n < 0`` raises :class:`ValueError`.

        The default implementation loops over :meth:`notify`; backends
        override it with a single batched wakeup where the primitive
        supports one (``threading.Condition.notify(n)``, one simulation
        kernel pass, one batch of future resolutions on asyncio).
        """
        if n < 0:
            raise ValueError(f"notify_n requires n >= 0, got {n}")
        for _ in range(n):
            self.notify()

    @abc.abstractmethod
    def notify_all(self) -> None:
        """Wake every thread waiting on this condition."""

    @abc.abstractmethod
    def waiter_count(self) -> int:
        """Number of threads currently waiting on this condition."""


class ThreadHandle(abc.ABC):
    """Handle for a spawned thread."""

    @abc.abstractmethod
    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the thread to finish."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """The thread's name."""

    @property
    @abc.abstractmethod
    def alive(self) -> bool:
        """Whether the thread is still running."""


@dataclass
class BackendMetrics:
    """Counters maintained by a backend across one experiment run.

    ``context_switches`` counts transfers of control between threads: on the
    simulation backend this is exact; on the threading backend it is
    approximated by the number of times a blocked thread resumed (every
    wake-up from a lock or condition wait implies at least one OS context
    switch into that thread).
    """

    context_switches: int = 0
    condition_waits: int = 0
    notifies: int = 0
    notify_alls: int = 0
    notified_threads: int = 0
    lock_acquisitions: int = 0
    lock_contentions: int = 0
    threads_spawned: int = 0

    def snapshot(self) -> dict:
        """Return the counters as a plain dictionary (for reports)."""
        return {
            "context_switches": self.context_switches,
            "condition_waits": self.condition_waits,
            "notifies": self.notifies,
            "notify_alls": self.notify_alls,
            "notified_threads": self.notified_threads,
            "lock_acquisitions": self.lock_acquisitions,
            "lock_contentions": self.lock_contentions,
            "threads_spawned": self.threads_spawned,
        }

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


class Backend(abc.ABC):
    """Factory for locks, conditions and threads, plus run-wide metrics."""

    #: Short identifier used in reports ("threading", "simulation", "asyncio").
    name: str = "abstract"

    #: One-line summary surfaced by the backend registry (``--list-backends``).
    description: str = ""

    #: The unit :meth:`now` counts in — ``"seconds"`` (wall clock) or
    #: ``"steps"`` (simulation scheduling decisions).  Timeouts handed to
    #: :meth:`ConditionAPI.wait` and ``wait_until`` are in this unit.
    time_unit: str = "seconds"

    def __init__(self) -> None:
        self.metrics = BackendMetrics()

    @classmethod
    def build(cls, seed: int = 0, run_timeout: Optional[float] = None) -> "Backend":
        """Construct an instance from the harness's uniform knobs.

        Real-time backends have no use for a scheduling seed or a modelled
        run timeout, so the default ignores both; the simulation backend
        overrides this to thread them into its kernel.
        """
        del seed, run_timeout
        return cls()

    @abc.abstractmethod
    def create_lock(self, label: Optional[str] = None) -> LockAPI:
        """Create a new lock.

        *label* is an optional human-readable name surfaced in diagnostics
        (block reasons, deadlock messages, schedule traces); backends may
        ignore it but must accept it.
        """

    @abc.abstractmethod
    def create_condition(
        self, lock: LockAPI, label: Optional[str] = None
    ) -> ConditionAPI:
        """Create a condition variable associated with *lock* (see
        :meth:`create_lock` for *label*)."""

    @abc.abstractmethod
    def spawn(
        self,
        target: Callable[[], None],
        name: Optional[str] = None,
    ) -> ThreadHandle:
        """Start a new thread running *target* and return its handle."""

    @abc.abstractmethod
    def run(
        self,
        targets: Sequence[Callable[[], None]],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        """Run every callable in *targets* in its own thread and wait for all
        of them to finish.  This is the entry point the experiment harness
        uses; the simulation backend overrides it to drive its scheduler."""

    @abc.abstractmethod
    def current_id(self) -> object:
        """An identifier for the calling thread, unique among live threads.

        Monitors use this for re-entrancy checks; workloads may use it for
        thread identity (e.g. the round-robin access pattern).
        """

    def now(self) -> float:
        """The backend's monotonic clock, in the units timed waits use.

        This is the single time-unit contract every timed wait is built on:

        - the value is monotonically non-decreasing and starts at an
          arbitrary origin (only differences are meaningful);
        - the unit is :attr:`time_unit` — wall-clock **seconds** for the
          threading and asyncio backends, **scheduling steps** for the
          simulation backend (its only notion of time), so a
          ``wait_until(..., timeout=50)`` under simulation gives up after
          50 scheduling decisions;
        - deadline arithmetic is uniform: callers compute
          ``deadline = now() + timeout`` once and pass
          ``max(deadline - now(), 0)`` as each remaining wait, never
          mixing clocks — the signalling policies centralise this in one
          place so no backend can drift.
        """
        return time.monotonic()

    def reset_metrics(self) -> None:
        """Zero the backend counters before a measured run."""
        self.metrics.reset()
