"""The simulation kernel: a deterministic cooperative scheduler.

Simulated threads take turns on the OS thread that called
:meth:`SimulationBackend.run`.  The kernel's *stepper* resumes one simulated
thread at a time and lets it run until it asks for a scheduling decision —
at a contended lock acquisition, a condition wait, an explicit yield, or its
exit — then makes the decision with a seeded scheduling policy and resumes
the thread it chose.  Runs are therefore fully reproducible.

Every simulated thread is a coroutine on the stepper's own OS thread.  Its
blocking primitives (:meth:`SimLock.acquire_async`,
:meth:`SimCondition.wait_async`, :meth:`SimulationBackend.yield_async`)
``await`` a decision request, which suspends the coroutine back into the
stepper; a switch is a generator ``send``, not an OS context switch.  A
target that is a coroutine function (``async def``) is stepped as it is; a
plain function is replaced by the coroutine twin generated from its source
(:mod:`repro.preprocessor.twins`), and a plain callable without a twin is
refused before the run's first decision.  The blocking ``acquire``/``wait``/
:meth:`SimulationBackend.yield_control` forms raise :class:`SimulationError`
when called from a simulated thread.

Only the OS thread running :meth:`SimulationBackend.run` may touch the
kernel's state, and only while the run lasts: every primitive checks that
with one compare of thread idents and raises :class:`SimulationError`
otherwise.  So no kernel state is guarded by a lock.

The kernel also owns the run-wide metrics: every hand-off of control is one
context switch, every condition wait and notification is counted, which gives
the exact quantities the paper's evaluation reasons about.
"""

from __future__ import annotations

import enum
import types
from threading import get_ident
from time import monotonic
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

from repro.runtime.api import Backend, BackendMetrics, ThreadHandle
from repro.runtime.simulation.schedulers import (
    SchedulePoint,
    Scheduler,
    ScheduleTrace,
    SchedulerSpec,
    create_scheduler,
)
from repro.runtime.simulation.sync import SimCondition, SimLock

__all__ = [
    "SimulationError",
    "DeadlockError",
    "SimulationLimitError",
    "SimulationHangError",
    "MonitorAbandonedError",
    "SimulationBackend",
]

#: ``observer(point)`` — called once per scheduling decision, on the stepper
#: between two resumptions, right after the decision was recorded; an
#: exception raised by the observer aborts the run and surfaces from
#: :meth:`SimulationBackend.run`.
DecisionObserver = Callable[[SchedulePoint], None]

#: Maximum times the deadlock-recovery hook (see
#: :meth:`SimulationBackend.set_deadlock_recovery`) may rescue one run; a
#: bound so a hook that keeps "recovering" without real progress cannot
#: livelock the kernel.
RECOVERY_ATTEMPT_LIMIT = 32

#: How many trailing schedule decisions a hang autopsy reports.
HANG_AUTOPSY_DECISIONS = 10

#: How many times an aborted run resumes one thread to let it unwind before
#: it closes the thread's coroutine instead.  A body unwinds in a handful of
#: resumptions (each ``finally`` block that enters the monitor may ask for
#: one void decision); one that catches ``BaseException`` around a primitive
#: in a loop would otherwise be resumed forever.
UNWIND_RESUME_LIMIT = 100


def _keep_forever(coro: types.CoroutineType) -> None:
    """Keep a coroutine that survived ``close()`` from ever being finalized.

    Finalizing closes it again, wherever its last reference happens to go:
    at the next :meth:`SimulationBackend.recycle`, in a garbage collection
    during another run, or at interpreter shutdown, which clears module
    globals (so a module-level list would not do).  Outside its own run
    every primitive it calls raises, and a body that swallows every
    exception in a loop then spins forever.  So the coroutine gets one
    reference the interpreter never releases: it stays suspended, with what
    it references, for the life of the process.
    """
    import ctypes

    ctypes.pythonapi.Py_IncRef(ctypes.py_object(coro))


class SimulationError(Exception):
    """Base class for errors raised by the simulation backend."""


class DeadlockError(SimulationError):
    """Raised when every live simulated thread is blocked."""


class SimulationLimitError(SimulationError):
    """Raised when a run exceeds the configured maximum number of scheduling
    steps (a guard against livelock in tests)."""


class SimulationHangError(SimulationError):
    """Raised when the wall-clock ``run_timeout`` fires: the run kept making
    decisions without finishing (a livelock, such as threads that yield to
    each other forever), which unlike a detected deadlock the kernel cannot
    diagnose on its own.  The message carries a full autopsy — parked
    threads, their block reasons, the hang inspector's predicate report and
    the last few schedule decisions — instead of a bare "did not finish"."""


class MonitorAbandonedError(SimulationError):
    """Raised when a simulated thread finished (crashed or was killed by
    fault injection) while still owning a lock that other threads are
    blocked behind: the monitor was *abandoned*, and no schedule can ever
    run the blocked threads again.  A classified verdict, not a hang."""


class _SimulationAbort(BaseException):
    """Internal control-flow exception used to unwind simulated threads when
    the kernel aborts a run.  Derives from ``BaseException`` so ordinary
    ``except Exception`` blocks in user code do not swallow it."""


class _InjectedDeath(BaseException):
    """Raised inside a doomed simulated thread (the ``thread_crash`` fault)
    at its next kernel primitive.  The kernel treats it as a silent thread
    exit — no failure is recorded; whatever the sudden death breaks (an
    abandoned lock, an unfinished workload) must surface on its own."""


class _State(enum.Enum):
    CREATED = "created"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


@types.coroutine
def _decide(reason: str):
    """Suspend the calling simulated thread into the stepper with a
    decision request; returns once the stepper resumes the thread.

    *reason* is why control is up for grabs (the thread's block reason, or
    ``"yield"``); it flows into the recorded decision point.
    """
    yield reason


class _SimThread:
    """Book-keeping for one simulated thread."""

    __slots__ = ("tid", "name", "target", "state", "block_reason", "timed_out", "coro")

    def __init__(self, tid: int, name: str, target: Callable[[], object]) -> None:
        self.tid = tid
        self.name = name
        #: A coroutine function: the body itself or its generated twin.
        self.target = target
        self.state = _State.CREATED
        self.block_reason: Optional[str] = None
        #: Set by the kernel when a timed condition wait expired; consumed
        #: by the wait primitive on resumption.
        self.timed_out = False
        #: The coroutine object, created when the stepper first resumes the
        #: thread.
        self.coro = None


class _SimHandle(ThreadHandle):
    """Thread handle returned by :meth:`SimulationBackend.spawn`."""

    def __init__(self, sim_thread: _SimThread) -> None:
        self._sim_thread = sim_thread

    def join(self, timeout: Optional[float] = None) -> None:
        # Joining from inside the simulation would deadlock the scheduler, so
        # joining is only meaningful after run() returned — and by then
        # every thread has finished.
        del timeout

    @property
    def name(self) -> str:
        return self._sim_thread.name

    @property
    def alive(self) -> bool:
        return self._sim_thread.state is not _State.FINISHED


class SimulationBackend(Backend):
    """Deterministic cooperative backend.

    Every run is stepped on the calling OS thread (see the module
    docstring): coroutine targets are stepped directly, plain functions as
    their generated coroutine twins.

    Parameters
    ----------
    seed:
        Seed passed to the scheduler at the start of every run.
    policy:
        Which scheduling strategy picks the next runnable thread: a name
        registered in :mod:`repro.runtime.simulation.schedulers` (``"fifo"``
        — the default —, ``"random"``, ...), a :class:`Scheduler` subclass,
        or a constructed instance (the hook the schedule explorer uses to
        pass :class:`~repro.runtime.simulation.schedulers.PrefixScheduler`
        and :class:`~repro.runtime.simulation.schedulers.ReplayScheduler`
        objects).
    max_steps:
        Optional upper bound on the number of scheduling steps per run.
    run_timeout:
        Wall-clock safety net for :meth:`run`, checked at every decision; a
        run that has not finished by then is aborted with
        :class:`SimulationHangError`.  It catches only runs that keep
        deciding without end: a simulated thread that blocks its OS thread
        outside the kernel blocks the stepper with it.
    record_trace:
        Record every scheduling decision as a
        :class:`~repro.runtime.simulation.schedulers.ScheduleTrace`
        (available as :attr:`schedule_trace` after the run).  Off by default
        so saturation runs pay nothing for it.
    observer:
        Optional callback invoked once per scheduling decision (see
        :data:`DecisionObserver`); the explorer's oracle checks hook in here.
    """

    name = "simulation"
    description = "deterministic cooperative scheduler; time is scheduling steps"
    time_unit = "steps"

    @classmethod
    def build(cls, seed: int = 0, run_timeout: Optional[float] = None) -> "SimulationBackend":
        if run_timeout is not None:
            return cls(seed=seed, run_timeout=run_timeout)
        return cls(seed=seed)

    def __init__(
        self,
        seed: int = 0,
        policy: SchedulerSpec = "fifo",
        max_steps: Optional[int] = None,
        run_timeout: float = 600.0,
        record_trace: bool = False,
        observer: Optional[DecisionObserver] = None,
    ) -> None:
        super().__init__()
        # create_scheduler's own errors already carry the right diagnostics:
        # unknown names list the registered schedulers, and a scheduler whose
        # constructor needs arguments (e.g. "replay") explains itself.
        self._scheduler = create_scheduler(policy)
        self._seed = seed
        self._max_steps = max_steps
        self._run_timeout = run_timeout
        self._record_trace = record_trace
        self._trace: Optional[ScheduleTrace] = ScheduleTrace() if record_trace else None
        self._observer = observer
        self._deadlock_inspector: Optional[Callable[[], Optional[str]]] = None
        self._hang_inspector: Optional[Callable[[], Optional[str]]] = None
        self._recovery_hook: Optional[Callable[[], Optional[SimCondition]]] = None
        self._fault_injector: Optional[object] = None
        self._condition_count = 0
        #: Every lock/condition this backend created, in creation order —
        #: the deterministic universe fault injection and abandonment
        #: detection scan.
        self._locks: List[SimLock] = []
        self._conditions: List[SimCondition] = []

        #: The ident of the OS thread running :meth:`run`, None between runs:
        #: the only thread that may call a primitive.
        self._owner: Optional[int] = None
        #: Serves :meth:`current_thread`: the simulated thread the stepper
        #: is acting for.
        self._acting: Optional[_SimThread] = None
        self._threads: Dict[int, _SimThread] = {}
        self._next_tid = 0
        self._clear_run_fields()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def scheduler(self) -> Scheduler:
        """The scheduling strategy instance driving this backend."""
        return self._scheduler

    @property
    def policy(self) -> str:
        """Registry name of the scheduling strategy."""
        return self._scheduler.name

    @property
    def schedule_trace(self) -> Optional[ScheduleTrace]:
        """The recorded decision trace of the latest run (None unless the
        backend was constructed with ``record_trace=True``)."""
        return self._trace

    @property
    def steps(self) -> int:
        """Scheduling decisions made so far in the current run."""
        return self._steps

    def now(self) -> float:
        """Simulation time: the number of scheduling decisions made.

        Timed waits measure their deadlines in these units, so a timeout of
        50 means "give up after 50 scheduling decisions" — deterministic and
        replayable, unlike wall-clock time.
        """
        return float(self._steps)

    def blocked_threads(self) -> tuple:
        """``(tid, name, block_reason)`` for every currently blocked thread.

        A snapshot for decision observers (which run on the stepper) and for
        post-mortem inspection after :meth:`run` returned; do not call from
        other OS threads mid-run.
        """
        return tuple(
            (t.tid, t.name, t.block_reason or "blocked")
            for t in self._threads.values()
            if t.state is _State.BLOCKED
        )

    def sync_state(self) -> tuple:
        """Hashable snapshot of all scheduling-relevant kernel state.

        Returns ``(threads, locks, conds)`` where ``threads`` is
        ``(tid, state, block_reason)`` in increasing tid order, ``locks`` is
        ``(index, owner_tid, waiter_queue)`` in creation order, and ``conds``
        is ``(index, waiter_queue)`` in creation order.  Same calling
        restrictions as :meth:`blocked_threads`; the DPOR explorer snapshots
        this at every decision point to build abstract configurations.

        The tid order needs no sort: thread ids are handed out in increasing
        order (restarting at 0 on :meth:`recycle`), ``_threads`` keeps
        insertion order, and a new run only drops threads from it.
        """
        threads = tuple([
            (t.tid, t.state._value_, t.block_reason) for t in self._threads.values()
        ])
        locks = tuple([
            (i, lock.owner, tuple(lock.queue)) for i, lock in enumerate(self._locks)
        ])
        conds = tuple([(i, tuple(c.waiters)) for i, c in enumerate(self._conditions)])
        return threads, locks, conds

    def set_observer(self, observer: Optional[DecisionObserver]) -> None:
        """Install (or clear) the per-decision observer callback.

        Exists alongside the constructor argument because observers usually
        close over objects — monitors, oracles — that are themselves built
        on top of this backend.
        """
        self._observer = observer

    def set_deadlock_inspector(self, inspector: Optional[Callable[[], Optional[str]]]) -> None:
        """Install a callback run at the instant a deadlock is detected.

        The callback runs *before* the blocked threads are unwound (their
        wait-bookkeeping is still intact, which post-mortem inspection after
        :meth:`run` raised would no longer see) and may return extra detail
        to append to the :class:`DeadlockError` message — e.g. the schedule
        explorer reports whether a waiting predicate was actually true,
        distinguishing a missed signal from a genuine deadlock.
        """
        self._deadlock_inspector = inspector

    def set_hang_inspector(self, inspector: Optional[Callable[[], Optional[str]]]) -> None:
        """Install a callback consulted when the wall-clock ``run_timeout``
        fires, *before* the stuck threads are unwound.

        Whatever string it returns is appended to the
        :class:`SimulationHangError` autopsy — the schedule explorer uses it
        to list the parked waiters' predicates, which only the monitor's
        condition manager knows.
        """
        self._hang_inspector = inspector

    def set_deadlock_recovery(
        self, hook: Optional[Callable[[], Optional[SimCondition]]]
    ) -> None:
        """Install a self-healing hook consulted when a deadlock is imminent.

        The hook runs on the stepper, after timed waits have been
        expired but before the deadlock is declared.  It must not call any
        kernel primitive; instead it may repair its own bookkeeping (e.g.
        re-promise a lost signal, demote a corrupt write tracker) and return
        the :class:`SimCondition` whose longest waiter the kernel should
        wake — or None to decline.  Recovery attempts are bounded by
        :data:`RECOVERY_ATTEMPT_LIMIT` per run so a hook that keeps
        "recovering" without progress cannot livelock the kernel.
        """
        self._recovery_hook = hook

    def set_fault_injector(self, injector: Optional[object]) -> None:
        """Attach a :class:`repro.faults.FaultInjector` (or None to clear).

        The injector's ``on_decision`` hook runs at every scheduling
        decision, ``on_notify`` intercepts condition notifications, and
        ``on_no_runnable`` gets a last word before deadlock handling —
        all on the stepper, restricted to the ``inject_*`` kernel methods
        below.
        """
        self._fault_injector = injector

    # ------------------------------------------------------------------
    # Backend factory methods
    # ------------------------------------------------------------------

    def create_lock(self, label: Optional[str] = None) -> SimLock:
        lock = SimLock(self, label=label)
        self._locks.append(lock)
        return lock

    def create_condition(self, lock: SimLock, label: Optional[str] = None) -> SimCondition:
        if not isinstance(lock, SimLock):
            raise TypeError("a SimulationBackend condition requires a SimulationBackend lock")
        if label is None:
            # A deterministic default label: two backends used identically
            # (same construction order, e.g. the explorer's fresh backend
            # per run) assign the same labels, so block reasons — and hence
            # recorded schedule traces — compare equal across runs and
            # processes, unlike the id()-based fallback.  The counter only
            # goes back on recycle() (to 0, or past the conditions adopt()
            # registers again), so labels stay unique on one backend.
            label = f"cond-{self._condition_count}"
        self._condition_count += 1
        condition = SimCondition(self, lock, label=label)
        self._conditions.append(condition)
        return condition

    def spawn(self, target: Callable[[], object], name: Optional[str] = None) -> _SimHandle:
        """Add a new simulated thread.

        Before :meth:`run` starts this registers the thread for the next run;
        while a run is in progress (called from a simulated thread) the new
        thread becomes runnable immediately.  A plain function is hosted as
        its coroutine twin; one without a twin raises
        :class:`SimulationError` here, as does a call from outside the
        run's simulated threads while a run is in progress.
        """
        from repro.preprocessor.twins import coroutine_bodies  # twins imports this module

        if self._owner is not None:
            self.current_thread()
        target = coroutine_bodies([target], [name or f"sim-{self._next_tid}"])[0]
        sim_thread = self._create_thread(target, name)
        if self._owner is not None:
            sim_thread.state = _State.RUNNABLE
            self._runnable.append(sim_thread.tid)
        return _SimHandle(sim_thread)

    # ------------------------------------------------------------------
    # Running a simulation
    # ------------------------------------------------------------------

    def run(
        self,
        targets: Sequence[Callable[[], object]],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        """Run all *targets* as simulated threads until every one finishes.

        Every target is stepped as a coroutine on the calling OS thread: a
        coroutine function as it is, a plain function as its generated
        twin.  Raises :class:`SimulationError` before the first decision if
        a target has no twin, :class:`DeadlockError` if all live threads
        block, :class:`SimulationLimitError` if ``max_steps`` is exceeded,
        and re-raises the first exception raised inside a simulated thread.
        """
        from repro.preprocessor.twins import coroutine_bodies  # twins imports this module

        if self._owner is not None:
            raise SimulationError("run() called while a simulation is already in progress")
        self._reset_run_state()
        names = [names[index] if names else f"sim-{index}" for index in range(len(targets))]
        bodies = coroutine_bodies(targets, names)

        for body, name in zip(bodies, names):
            self._create_thread(body, name)
        pending = list(self._threads.values())
        if not pending:
            return
        self._owner = get_ident()
        for sim_thread in pending:
            sim_thread.state = _State.RUNNABLE
            self._runnable.append(sim_thread.tid)
        try:
            autopsy = self._step(self._pick_next())
        finally:
            self._acting = None
            self._owner = None

        if autopsy is not None:
            raise SimulationHangError(
                f"simulation did not finish within {self._run_timeout} "
                f"seconds\n{autopsy}"
            )
        if self._unkillable:
            raise SimulationHangError(
                f"simulated thread(s) {', '.join(self._unkillable)} kept running "
                f"after the run was aborted ({UNWIND_RESUME_LIMIT} resumptions) "
                "and survived close(): a body that catches BaseException must "
                "re-raise it"
            )
        if self._abandonment_message is not None:
            raise MonitorAbandonedError(self._abandonment_message)
        if self._deadlock_message is not None:
            raise DeadlockError(self._deadlock_message)
        if self._limit_exceeded:
            raise SimulationLimitError(
                f"simulation exceeded the configured limit of {self._max_steps} steps"
            )
        if self._failures:
            raise self._failures[0]

    def _reset_run_state(self) -> None:
        # Threads registered with spawn() before run() was called take part
        # in the upcoming run; everything else from previous runs is dropped.
        self._threads = {
            tid: sim_thread
            for tid, sim_thread in self._threads.items()
            if sim_thread.state is _State.CREATED
        }
        self._clear_run_fields()
        self._scheduler.reset(self._seed)
        if self._record_trace:
            self._trace = ScheduleTrace()

    def _clear_run_fields(self) -> None:
        """Reset the per-run scheduling and verdict state (at construction
        and at the start of every :meth:`run`)."""
        self._runnable: List[int] = []
        self._current: Optional[int] = None
        self._abort = False
        self._deadlock_message: Optional[str] = None
        self._abandonment_message: Optional[str] = None
        self._limit_exceeded = False
        self._failures: List[BaseException] = []
        self._steps = 0
        #: tid -> (condition, deadline) for threads in a timed condition
        #: wait; deadlines are in scheduling steps (see :meth:`now`).
        self._timed_waits: Dict[int, tuple] = {}
        #: tids the ``thread_crash`` fault marked for death; they raise
        #: :class:`_InjectedDeath` at their next kernel primitive.
        self._doomed: set = set()
        self._recovery_attempts = 0
        #: Names of threads that survived ``close()`` while unwinding.
        self._unkillable: List[str] = []

    def shutdown(self) -> None:
        """Do nothing: a simulation backend holds no OS resources.

        Every simulated thread runs on the OS thread that called
        :meth:`run`, so there is nothing to release between runs or when
        the backend is dropped.  Kept for callers that shut a backend down
        after use.
        """

    def recycle(
        self,
        seed: Optional[int] = None,
        policy: Optional[SchedulerSpec] = None,
    ) -> None:
        """Reset this backend to fresh-construction state.

        After recycling, the backend behaves exactly like a newly
        constructed ``SimulationBackend(seed=..., policy=..., ...)``: thread
        ids restart at 0, condition labels restart at ``cond-0``, no lock or
        condition is registered, metrics are zeroed, and all
        observers/inspectors/injectors are cleared — so recorded traces and
        digests compare bit-for-bit with a fresh backend's.  The schedule
        explorer recycles one backend across the thousands of runs of a task
        instead of paying construction every run.  The per-run scheduling
        state is cleared when the next :meth:`run` starts.

        Raises :class:`SimulationError` if a run is in progress.
        """
        if self._owner is not None:
            raise SimulationError("recycle() called while a simulation is in progress")
        if seed is not None:
            self._seed = seed
        if policy is not None:
            self._scheduler = create_scheduler(policy)
        self._trace = ScheduleTrace() if self._record_trace else None
        self._observer = None
        self._deadlock_inspector = None
        self._hang_inspector = None
        self._recovery_hook = None
        self._fault_injector = None
        self._condition_count = 0
        self._locks = []
        self._conditions = []
        self._threads = {}
        self._next_tid = 0
        self.metrics = BackendMetrics()

    def sync_objects(self) -> Tuple[Tuple[SimLock, ...], Tuple[SimCondition, ...]]:
        """The locks and conditions created on this backend since it was
        constructed or last recycled, in creation order."""
        return tuple(self._locks), tuple(self._conditions)

    def adopt(self, objects: Tuple[Tuple[SimLock, ...], Tuple[SimCondition, ...]]) -> None:
        """Register again locks and conditions that :meth:`sync_objects`
        returned before this backend was recycled: each free and with empty
        queues, in their order, so the next default condition label follows
        theirs.  A workload built once and restored between runs (see
        :mod:`repro.explore.restore`) keeps its build's locks and conditions
        this way, and the backend then looks as it did right after the build.

        Raises :class:`SimulationError` unless the backend was just recycled.
        """
        if self._owner is not None or self._locks or self._conditions:
            raise SimulationError("adopt() needs a freshly recycled backend")
        locks, conditions = objects
        for lock in locks:
            lock.owner = None
            lock.queue.clear()
        for condition in conditions:
            condition.waiters.clear()
        self._locks = list(locks)
        self._conditions = list(conditions)
        self._condition_count = len(conditions)

    def _create_thread(
        self, target: Callable[[], object], name: Optional[str]
    ) -> _SimThread:
        tid = self._next_tid
        self._next_tid += 1
        sim_thread = _SimThread(tid, name or f"sim-{tid}", target)
        self._threads[tid] = sim_thread
        self.metrics.threads_spawned += 1
        return sim_thread

    # ------------------------------------------------------------------
    # The stepper
    # ------------------------------------------------------------------

    def _step(self, sim_thread: Optional[_SimThread]) -> Optional[str]:
        """Resume threads and decide, until the run is over.

        Each turn resumes *sim_thread* until its next request — a decision
        reason, or None once it finished — and makes the decision on its
        behalf.  An aborted run is unwound afterwards.  Returns the hang
        autopsy when the wall-clock net fired, else None.
        """
        deadline = monotonic() + self._run_timeout
        last = sim_thread
        while sim_thread is not None:
            if monotonic() >= deadline:
                return self._abort_hung(sim_thread)
            last = sim_thread
            reason = self._resume(sim_thread)
            if reason is None:
                sim_thread = self._finish(sim_thread)
            else:
                sim_thread = self._pick_next(reason)
        if self._abort:
            self._unwind(last)
        return None

    def _resume(self, sim_thread: _SimThread) -> Optional[str]:
        """Run *sim_thread* until its next request: a decision reason, or
        None once it finished."""
        self._acting = sim_thread
        try:
            coro = sim_thread.coro
            if coro is None:
                if self._abort:
                    return None  # never started: nothing to unwind
                coro = sim_thread.coro = sim_thread.target()
            request = coro.send(None)
            if type(request) is not str:
                # Awaiting anything but a simulation primitive (an asyncio
                # sleep, a future) would suspend the thread behind the
                # kernel's back: fail it at that await instead.
                request = coro.throw(SimulationError(
                    f"simulated thread {sim_thread.name} awaited {request!r}, "
                    "which is not a simulation primitive"
                ))
            return request
        except StopIteration:
            return None
        except (_SimulationAbort, _InjectedDeath):
            # An aborted run unwinding, or the thread_crash fault: a silent
            # exit.  Locks it owns stay owned — abandonment detection (not
            # this handler) reports that.
            return None
        except BaseException as exc:
            self._fail(exc)
            return None

    def _finish(self, sim_thread: _SimThread) -> Optional[_SimThread]:
        """*sim_thread* exited: the next thread to resume, if any."""
        sim_thread.state = _State.FINISHED
        if self._current == sim_thread.tid:
            self._current = None
        if self._abort:
            return None
        return self._pick_next(reason="exit")

    def _unwind(self, first: Optional[_SimThread]) -> None:
        """Finish every thread of an aborted run, one at a time.

        *first* — the thread whose request ended the run — unwinds first,
        then the rest in thread-id order, each resumed until it exits (its
        next primitive raises :class:`_SimulationAbort`; a decision it asks
        for on the way out is void).  A thread still running after
        :data:`UNWIND_RESUME_LIMIT` resumptions has its coroutine closed;
        one that survives even that is named in ``_unkillable``.
        """
        order = list(self._threads.values())
        if first is not None:
            order.remove(first)
            order.insert(0, first)
        for sim_thread in order:
            for _ in range(UNWIND_RESUME_LIMIT):
                if sim_thread.state is _State.FINISHED:
                    break
                if self._resume(sim_thread) is None:
                    self._finish(sim_thread)
            if sim_thread.state is not _State.FINISHED:
                self._close(sim_thread)

    def _close(self, sim_thread: _SimThread) -> None:
        """Close the coroutine of a thread that would not unwind.

        A body that swallows the ``GeneratorExit`` too stays suspended: it
        is named in ``_unkillable`` and its coroutine is never finalized
        (:func:`_keep_forever`).
        """
        self._acting = sim_thread
        coro = sim_thread.coro
        try:
            coro.close()
        except Exception as exc:
            if coro.cr_frame is None:  # the exit raised this on its way out
                self._fail(exc)
        if coro.cr_frame is not None:
            # "coroutine ignored GeneratorExit": it asked for another decision.
            self._unkillable.append(sim_thread.name)
            _keep_forever(coro)
        self._finish(sim_thread)

    def _abort_hung(self, sim_thread: _SimThread) -> str:
        """The wall-clock net fired with *sim_thread* chosen to run next:
        diagnose, abort, unwind, and return the autopsy."""
        # Autopsy first: the unwinding below dismantles the very
        # bookkeeping (block reasons, waiter queues, predicate entries)
        # the diagnosis needs.
        autopsy = self._hang_autopsy()
        self._abort = True
        self._unwind(sim_thread)
        return autopsy

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def current_thread(self) -> _SimThread:
        """Return the simulated thread corresponding to the calling thread.

        Every simulation primitive (lock, condition, yield) starts here.
        Only the OS thread running :meth:`run` may use them, so the check is
        one compare of thread idents and the answer a plain attribute.  Any
        other caller (code outside a run, another OS thread) gets
        :class:`SimulationError`.
        """
        sim_thread = self._acting
        if sim_thread is None or get_ident() != self._owner:
            raise SimulationError(
                "simulation primitives may only be used from inside a simulated thread"
            )
        return sim_thread

    def _refuse_blocking(self, primitive: str) -> NoReturn:
        """A blocking primitive was called: a simulated thread is a
        coroutine and cannot park inside a synchronous call."""
        sim_thread = self.current_thread()
        raise SimulationError(
            f"simulated thread {sim_thread.name} runs as a coroutine and must "
            f"await the {primitive}_async primitive instead of calling the "
            f"blocking {primitive}()"
        )

    def current_name(self) -> str:
        """Name of the currently running simulated thread."""
        return self.current_thread().name

    def current_id(self) -> object:
        return self.current_thread().tid

    def _pick_next(self, reason: str = "start") -> Optional[_SimThread]:
        """Choose, dequeue and dispatch-mark the next runnable thread.

        *reason* records why control was up for grabs (the previous thread
        blocked with that reason, yielded, exited, or the run is starting);
        it flows into the recorded :class:`ScheduleTrace` decision points.
        """
        if self._abort:
            return None
        if self._timed_waits:
            self._expire_waits(self._steps)
        if self._fault_injector is not None:
            try:
                self._fault_injector.on_decision(self, self._steps)
            except BaseException as exc:
                self._fail(exc)
                return None
        if self._max_steps is not None and self._steps >= self._max_steps:
            self._limit_exceeded = True
            self._abort = True
            return None
        if not self._runnable:
            return self._handle_no_runnable()
        try:
            index = self._scheduler.choose(self._runnable)
        except BaseException as exc:
            self._fail(exc)
            return None
        if not 0 <= index < len(self._runnable):
            self._fail(
                SimulationError(
                    f"scheduler {self._scheduler.name!r} chose index {index} "
                    f"but only {len(self._runnable)} threads are runnable"
                )
            )
            return None
        tid = self._runnable.pop(index)
        sim_thread = self._threads[tid]
        sim_thread.state = _State.RUNNING
        sim_thread.block_reason = None
        point: Optional[SchedulePoint] = None
        if self._trace is not None or self._observer is not None:
            # Positional: the keyword form costs half as much again.
            point = SchedulePoint(
                self._steps, tuple(sorted(self._runnable + [tid])), tid, reason
            )
        if self._trace is not None:
            self._trace.append(point)
        self._steps += 1
        if self._current != tid:
            # Re-dispatching the same thread (a yield with nobody else
            # runnable) is not a context switch.
            self.metrics.context_switches += 1
        self._current = tid
        if self._observer is not None:
            try:
                self._observer(point)
            except BaseException as exc:
                self._fail(exc)
                return None
        return sim_thread

    def _fail(self, exc: BaseException) -> None:
        """Abort the run with *exc*: an exception that escaped a simulated
        thread, or one raised by a scheduler, observer or fault-injection
        callback in the stepper's decisions, outside any simulated thread's
        code.  Both are funnelled through the failure list and surface from
        :meth:`run`.
        """
        self._failures.append(exc)
        self._abort = True

    def _handle_no_runnable(self) -> Optional[_SimThread]:
        live = [t for t in self._threads.values() if t.state is not _State.FINISHED]
        blocked = [t for t in live if t.state is _State.BLOCKED]
        self._current = None
        if not live:
            return None  # everything finished: the run is over
        if not blocked:
            # Live threads that are neither runnable nor blocked: only a
            # kernel bug leaves the stepper nothing to resume like this.
            self._fail(
                SimulationError("internal error: live threads but none runnable or blocked")
            )
            return None
        # Timed waiters outrank deadlock: with nothing runnable, simulation
        # time jumps to the earliest pending deadline (real time would pass
        # anyway) and the expired waiter gets the monitor back.
        if self._timed_waits:
            self._expire_waits(
                min(deadline for _, deadline in self._timed_waits.values())
            )
            if self._runnable:
                return self._pick_next(reason="wait timeout")
            return self._handle_no_runnable()
        # Fault injection gets a last word (e.g. a delayed signal still in
        # flight is force-delivered rather than reported as a deadlock).
        if self._fault_injector is not None:
            try:
                rescued = self._fault_injector.on_no_runnable(self)
            except BaseException as exc:
                self._fail(exc)
                return None
            if rescued:
                if self._runnable:
                    return self._pick_next(reason="delayed signal")
                return self._handle_no_runnable()
        details = ", ".join(
            f"{t.name} ({t.block_reason or 'blocked'})" for t in sorted(blocked, key=lambda t: t.tid)
        )
        # A lock owned by a finished thread can never be released: classify
        # as monitor abandonment, not a generic deadlock.
        abandoned = self._find_abandoned_lock()
        if abandoned is not None:
            lock, owner = abandoned
            label = lock.label or "monitor lock"
            self._abandonment_message = (
                f"monitor abandoned: thread {owner.name} finished while "
                f"holding lock {label}; {len(blocked)} blocked thread(s) "
                f"can never run again — {details}"
            )
            self._abort = True
            return None
        # Self-healing: let the recovery hook re-promise a lost signal
        # before the deadlock is declared final.
        if (
            self._recovery_hook is not None
            and self._recovery_attempts < RECOVERY_ATTEMPT_LIMIT
        ):
            self._recovery_attempts += 1
            try:
                condition = self._recovery_hook()
            except Exception:  # recovery must never mask the deadlock
                condition = None
            if condition is not None and condition.waiters:
                waiter_tid = condition.waiters.popleft()
                self._grant_lock_to_waiter(condition, waiter_tid)
                if self._runnable:
                    return self._pick_next(reason="self-heal")
                return self._handle_no_runnable()
        message = (
            f"deadlock: all {len(blocked)} live simulated threads are blocked — {details}"
        )
        if self._deadlock_inspector is not None:
            # Inspect *now*: waiting threads still hold their wait-side
            # bookkeeping (condition queues, predicate entries); the abort
            # below unwinds all of it.
            try:
                extra = self._deadlock_inspector()
            except Exception:  # diagnostics must never mask the deadlock
                extra = None
            if extra:
                message = f"{message}; {extra}"
        self._deadlock_message = message
        self._abort = True
        return None

    def _make_runnable(self, tid: int) -> None:
        sim_thread = self._threads[tid]
        if sim_thread.state is _State.FINISHED:
            raise SimulationError(f"cannot make finished thread {sim_thread.name} runnable")
        sim_thread.state = _State.RUNNABLE
        sim_thread.block_reason = None
        self._runnable.append(tid)

    @staticmethod
    def _block(sim_thread: _SimThread, reason: str) -> str:
        sim_thread.state = _State.BLOCKED
        sim_thread.block_reason = reason
        return reason

    def _resumed(self) -> None:
        """Back from a decision request: unwind if the run was aborted."""
        if self._abort:
            raise _SimulationAbort()

    def yield_control(self) -> None:
        """Refused: a simulated thread awaits :meth:`yield_async` instead (a
        plain body's twin does so in its place)."""
        self._refuse_blocking("yield")

    async def yield_async(self) -> None:
        """Voluntarily hand control to another runnable thread (if any)."""
        sim_thread = self.current_thread()
        self._check_doomed(sim_thread)
        self._runnable.append(sim_thread.tid)
        sim_thread.state = _State.RUNNABLE
        await _decide("yield")
        self._resumed()

    # ------------------------------------------------------------------
    # Lock operations (called by SimLock)
    # ------------------------------------------------------------------

    def lock_acquire(self, lock: SimLock) -> None:
        """Refused: a simulated thread awaits :meth:`lock_acquire_async`."""
        self._refuse_blocking("acquire")

    async def lock_acquire_async(self, lock: SimLock) -> None:
        """Take *lock* if it is free; otherwise queue the thread on it and
        ask for the decision that eventually hands it over."""
        sim_thread = self.current_thread()
        self._check_doomed(sim_thread)
        if lock.owner is None:
            lock.owner = sim_thread.tid
            self.metrics.lock_acquisitions += 1
            return
        if lock.owner == sim_thread.tid:
            raise SimulationError(
                f"thread {sim_thread.name} attempted to re-acquire a lock it already holds"
            )
        lock.queue.append(sim_thread.tid)
        self.metrics.lock_contentions += 1
        reason = self._block(
            sim_thread, f"waiting for lock {lock.label}" if lock.label else "waiting for lock"
        )
        await _decide(reason)
        self._resumed()
        if lock.owner != sim_thread.tid:
            raise SimulationError(
                "internal error: thread resumed from lock wait without ownership"
            )
        self.metrics.lock_acquisitions += 1

    def lock_release(self, lock: SimLock) -> None:
        sim_thread = self.current_thread()
        self._check_doomed(sim_thread)
        if lock.owner != sim_thread.tid:
            raise SimulationError(
                f"thread {sim_thread.name} released a lock it does not hold"
            )
        self._release_lock(lock)

    def _release_lock(self, lock: SimLock) -> None:
        if lock.queue:
            next_tid = lock.queue.popleft()
            lock.owner = next_tid
            self._make_runnable(next_tid)
        else:
            lock.owner = None

    # ------------------------------------------------------------------
    # Condition operations (called by SimCondition)
    # ------------------------------------------------------------------

    def condition_wait(
        self, condition: SimCondition, timeout: Optional[float] = None
    ) -> bool:
        """Refused: a simulated thread awaits :meth:`condition_wait_async`."""
        self._refuse_blocking("wait")

    async def condition_wait_async(
        self, condition: SimCondition, timeout: Optional[float] = None
    ) -> bool:
        """Park the thread on *condition*, releasing its lock, until it is
        notified and holds the lock again; False when *timeout* expired."""
        sim_thread = self.current_thread()
        self._check_doomed(sim_thread)
        if condition.lock.owner != sim_thread.tid:
            raise SimulationError(
                f"thread {sim_thread.name} called wait() without holding the monitor lock"
            )
        condition.waiters.append(sim_thread.tid)
        self.metrics.condition_waits += 1
        if timeout is not None:
            # Deadlines are measured in scheduling steps (see now());
            # expiry happens at the next scheduling decision at or past
            # the deadline, or immediately when nothing else can run.
            self._timed_waits[sim_thread.tid] = (condition, self._steps + timeout)
        self._release_lock(condition.lock)
        label = condition.label if condition.label is not None else f"{id(condition):#x}"
        reason = self._block(sim_thread, f"waiting on condition {label}")
        await _decide(reason)
        self._resumed()
        timed_out = sim_thread.timed_out
        sim_thread.timed_out = False
        if condition.lock.owner != sim_thread.tid:
            raise SimulationError(
                "internal error: thread resumed from condition wait without the lock"
            )
        return not timed_out

    def condition_notify(
        self, condition: SimCondition, wake_all: bool, count: int = 1
    ) -> None:
        """Wake waiters of *condition*: all of them (``wake_all``) or up to
        *count* in FIFO order (``notify_n`` passes ``count > 1``).

        A bulk wakeup is one notification event — a single ``notifies``
        metric increment and a single fault-injection point, so a suppressed
        notify drops the whole batch exactly like a lost ``notify(n)``.
        """
        sim_thread = self.current_thread()
        if self._abort:
            # Threads unwinding an aborted run pass through the
            # monitor's exit relay; their notifications are neither
            # counted nor delivered, so an aborted run's counters stop
            # at the decision that aborted it.
            raise _SimulationAbort()
        self._check_doomed(sim_thread)
        if condition.lock.owner != sim_thread.tid:
            raise SimulationError(
                f"thread {sim_thread.name} called notify without holding the monitor lock"
            )
        if wake_all:
            self.metrics.notify_alls += 1
            count = len(condition.waiters)
        else:
            self.metrics.notifies += 1
            count = min(count, len(condition.waiters))
        if count and self._fault_injector is not None:
            try:
                suppressed = self._fault_injector.on_notify(
                    self, condition, wake_all
                )
            except BaseException as exc:
                self._fail(exc)
                raise _SimulationAbort()
            if suppressed:
                # The fault swallowed (or detached, for delayed delivery)
                # this notification; the waiters stay parked.
                return
        for _ in range(count):
            waiter_tid = condition.waiters.popleft()
            self.metrics.notified_threads += 1
            self._grant_lock_to_waiter(condition, waiter_tid)

    def _grant_lock_to_waiter(
        self, condition: SimCondition, waiter_tid: int
    ) -> None:
        """Move a dequeued waiter to the lock's entry queue (or grant the
        lock outright), exactly like a Java signalled thread.

        Shared by notification, timed-wait expiry and the self-heal path;
        cancels any pending timed-wait deadline for the waiter.
        """
        self._timed_waits.pop(waiter_tid, None)
        # A notified thread must re-acquire the monitor lock before it
        # can run again, exactly like a Java signalled thread moving
        # to the lock's entry queue.
        if condition.lock.owner is None:
            condition.lock.owner = waiter_tid
            self._make_runnable(waiter_tid)
        else:
            condition.lock.queue.append(waiter_tid)

    # ------------------------------------------------------------------
    # Timed waits
    # ------------------------------------------------------------------

    def _expire_waits(self, cutoff: float) -> None:
        """Expire every timed wait whose deadline is at or before *cutoff*
        (in step time), earliest first."""
        due = sorted(
            (deadline, tid)
            for tid, (_, deadline) in self._timed_waits.items()
            if deadline <= cutoff
        )
        for _, tid in due:
            self._expire_wait(tid)

    def _expire_wait(self, tid: int) -> None:
        condition, _ = self._timed_waits.pop(tid)
        sim_thread = self._threads.get(tid)
        if sim_thread is None or sim_thread.state is not _State.BLOCKED:
            # Already notified/aborted between scheduling decisions.
            return
        try:
            condition.waiters.remove(tid)
        except ValueError:
            # Notified concurrently with expiry: the notification wins.
            return
        sim_thread.timed_out = True
        self._grant_lock_to_waiter(condition, tid)

    # ------------------------------------------------------------------
    # Fault injection surface (called by repro.faults from injector hooks
    # only, on the stepper)
    # ------------------------------------------------------------------

    def _check_doomed(self, sim_thread: _SimThread) -> None:
        if self._doomed and sim_thread.tid in self._doomed:
            self._doomed.discard(sim_thread.tid)
            raise _InjectedDeath()

    def inject_wake_one_waiter(self) -> Optional[int]:
        """Spuriously wake the longest waiter of the first populated
        condition; returns its tid, or None when nobody is waiting."""
        for condition in self._conditions:
            if condition.waiters:
                waiter_tid = condition.waiters.popleft()
                self._grant_lock_to_waiter(condition, waiter_tid)
                return waiter_tid
        return None

    def inject_doom_lock_owner(self) -> Optional[int]:
        """Mark the first live lock owner for death at its next kernel
        primitive; returns its tid, or None when no lock is held."""
        for lock in self._locks:
            owner = lock.owner
            if owner is None:
                continue
            sim_thread = self._threads.get(owner)
            if sim_thread is not None and sim_thread.state is not _State.FINISHED:
                self._doomed.add(owner)
                return owner
        return None

    def inject_detach_waiter(self, condition: SimCondition) -> Optional[int]:
        """Remove (without waking) the longest waiter of *condition*;
        returns its tid, or None.  The delayed-signal fault re-delivers the
        detached waiter later via :meth:`inject_deliver_waiter`."""
        if condition.waiters:
            return condition.waiters.popleft()
        return None

    def inject_deliver_waiter(self, condition: SimCondition, tid: int) -> bool:
        """Deliver a previously detached waiter back into *condition*'s lock
        queue, as if its notification just arrived.  Returns False when the
        thread is gone or already runnable (e.g. its timed wait expired)."""
        sim_thread = self._threads.get(tid)
        if sim_thread is None or sim_thread.state is not _State.BLOCKED:
            return False
        if condition.lock.owner == tid or tid in condition.lock.queue:
            return False
        self.metrics.notified_threads += 1
        self._grant_lock_to_waiter(condition, tid)
        return True

    # ------------------------------------------------------------------
    # Hang autopsy and abandonment detection
    # ------------------------------------------------------------------

    def _find_abandoned_lock(self) -> Optional[tuple]:
        """A ``(lock, owner)`` pair where the owner finished while threads
        still queue behind the lock (directly or via its conditions)."""
        for lock in self._locks:
            if lock.owner is None:
                continue
            owner = self._threads.get(lock.owner)
            if owner is None or owner.state is not _State.FINISHED:
                continue
            if lock.queue or any(
                c.waiters for c in self._conditions if c.lock is lock
            ):
                return (lock, owner)
        return None

    def _hang_autopsy(self) -> str:
        """Diagnose a wall-clock hang: who is parked, why, and what the
        scheduler last did.  Built *before* the abort unwinds the waiters."""
        live = [t for t in self._threads.values() if t.state is not _State.FINISHED]
        blocked = [t for t in live if t.state is _State.BLOCKED]
        lines = [
            f"hang autopsy: {len(blocked)}/{len(live)} live thread(s) blocked "
            f"after {self._steps} scheduling step(s)"
        ]
        for t in sorted(blocked, key=lambda t: t.tid):
            lines.append(f"  parked: {t.name} — {t.block_reason or 'blocked'}")
        if self._hang_inspector is not None:
            try:
                extra = self._hang_inspector()
            except Exception:  # diagnostics must never mask the hang
                extra = None
            if extra:
                lines.append(f"  waiters: {extra}")
        if self._trace is not None and len(self._trace):
            tail = list(self._trace)[-HANG_AUTOPSY_DECISIONS:]
            lines.append(f"  last {len(tail)} schedule decision(s):")
            for point in tail:
                lines.append(
                    f"    step {point.step}: chose {point.chosen} "
                    f"of {list(point.runnable)} ({point.reason})"
                )
        return "\n".join(lines)
