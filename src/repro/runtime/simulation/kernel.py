"""The simulation kernel: a deterministic cooperative scheduler.

Every simulated thread is carried by a real Python thread, but the kernel
allows exactly one of them to execute at any moment.  Control is transferred
only at synchronization points — contended lock acquisition, condition wait,
thread exit, or an explicit yield — and the next thread to run is chosen by a
seeded scheduling policy, so runs are fully reproducible.

The kernel also owns the run-wide metrics: every hand-off of control is one
context switch, every condition wait and notification is counted, which gives
the exact quantities the paper's evaluation reasons about.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

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

#: ``observer(point)`` — called once per scheduling decision, with the kernel
#: lock held, right after the decision was recorded; an exception raised by
#: the observer aborts the run and surfaces from :meth:`SimulationBackend.run`.
DecisionObserver = Callable[[SchedulePoint], None]

#: Maximum times the deadlock-recovery hook (see
#: :meth:`SimulationBackend.set_deadlock_recovery`) may rescue one run; a
#: bound so a hook that keeps "recovering" without real progress cannot
#: livelock the kernel.
RECOVERY_ATTEMPT_LIMIT = 32

#: How many trailing schedule decisions a hang autopsy reports.
HANG_AUTOPSY_DECISIONS = 10


class SimulationError(Exception):
    """Base class for errors raised by the simulation backend."""


class DeadlockError(SimulationError):
    """Raised when every live simulated thread is blocked."""


class SimulationLimitError(SimulationError):
    """Raised when a run exceeds the configured maximum number of scheduling
    steps (a guard against livelock in tests)."""


class SimulationHangError(SimulationError):
    """Raised when the wall-clock ``run_timeout`` fires: the simulation made
    no progress, but unlike a detected deadlock the kernel cannot say why
    (typically a simulated thread blocked on something outside the kernel's
    control).  The message carries a full autopsy — parked threads, their
    block reasons, the hang inspector's predicate report and the last few
    schedule decisions — instead of a bare "did not finish"."""


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
    at its next kernel primitive.  The carrier treats it as a silent thread
    exit — no failure is recorded; whatever the sudden death breaks (an
    abandoned lock, an unfinished workload) must surface on its own."""


class _State(enum.Enum):
    CREATED = "created"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


class _Gate:
    """One-token handoff gate: a binary semaphore over a raw lock.

    Cheaper than :class:`threading.Event` for the kernel's one-producer,
    one-consumer control handoffs (an Event pays an internal Condition
    round-trip per set/wait cycle; a raw lock is a single futex operation).
    ``set`` deposits a wake token — duplicate sets merge, exactly like
    ``Event.set`` — and ``wait`` consumes it, so no explicit ``clear`` is
    needed between handoffs.
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()

    def set(self) -> None:
        try:
            self._lock.release()
        except RuntimeError:
            pass  # token already deposited; duplicates merge

    def wait(self) -> None:
        self._lock.acquire()

    def wait_for(self, timeout: float) -> bool:
        return self._lock.acquire(timeout=timeout)


class _Latch:
    """One-shot sticky flag over a raw lock: a cheaper ``threading.Event``.

    ``set`` opens the latch permanently (duplicates merge); ``wait``
    re-deposits the token after consuming it, so any number of sequential
    or concurrent waiters pass once it is open.  Used for run/thread
    completion flags, which are set once and never cleared — unlike
    :class:`_Gate`, whose token is consumed per handoff.
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()

    def set(self) -> None:
        try:
            self._lock.release()
        except RuntimeError:
            pass  # already open

    def wait(self, timeout: Optional[float] = None) -> bool:
        if timeout is None:
            self._lock.acquire()
        elif not self._lock.acquire(timeout=timeout):
            return False
        self._lock.release()  # stay open for the next waiter
        return True


#: How long a parked carrier waits for its next job before retiring its OS
#: thread.  Exploration redispatches carriers within microseconds; the
#: timeout only matters for backends that are discarded without being
#: recycled, whose carriers would otherwise sleep forever.
CARRIER_IDLE_TIMEOUT = 10.0

#: Poison job: a carrier dispatched this retires instead of carrying.
_RETIRE = object()


class _Carrier:
    """A pooled OS thread that carries simulated threads, one run at a time.

    Spawning a fresh OS thread per simulated thread per schedule dominates
    the cost of short exploration runs, so each backend parks its carriers
    between runs and re-dispatches them.  A carrier loops forever: wait for
    a job, carry the simulated thread to completion, park back in the
    backend's idle pool.  Carriers are daemons; one that never returns from
    a stuck run is simply abandoned (and the backend marked tainted) rather
    than reused.
    """

    __slots__ = ("_backend", "_gate", "_job", "thread")

    def __init__(self, backend: "SimulationBackend") -> None:
        self._backend = backend
        self._gate = _Gate()
        self._job: Optional[_SimThread] = None
        self.thread = threading.Thread(target=self._loop, name="sim-carrier", daemon=True)
        self.thread.start()

    def dispatch(self, sim_thread: "_SimThread") -> None:
        sim_thread.real_thread = self.thread
        self._job = sim_thread
        self._gate.set()

    def retire(self) -> None:
        """Release this carrier's OS thread now instead of after the idle
        timeout.  Only valid on a carrier already removed from the idle
        pool (so no dispatch can race the poison job).
        """
        self._job = _RETIRE
        self._gate.set()

    def _loop(self) -> None:
        while True:
            if not self._gate.wait_for(CARRIER_IDLE_TIMEOUT):
                backend = self._backend
                with backend._lock:
                    try:
                        backend._idle_carriers.remove(self)
                    except ValueError:
                        # A dispatch (or retire) claimed this carrier
                        # concurrently with the timeout; its job (and wake
                        # token) is in flight — loop back and pick it up.
                        continue
                return  # retired: idle too long, release the OS thread
            sim_thread = self._job
            self._job = None
            if sim_thread is _RETIRE:
                return
            self._backend._carry(self, sim_thread)


class _SimThread:
    """Book-keeping for one simulated thread."""

    __slots__ = (
        "tid",
        "name",
        "target",
        "state",
        "go",
        "done",
        "real_thread",
        "block_reason",
        "timed_out",
    )

    def __init__(self, tid: int, name: str, target: Callable[[], None]) -> None:
        self.tid = tid
        self.name = name
        self.target = target
        self.state = _State.CREATED
        self.go = _Gate()
        #: Set by the carrier once this simulated thread's job is fully over
        #: — after ``_on_exit`` ran *and* the carrier parked back in the
        #: idle pool, so waiting on ``done`` for every thread guarantees the
        #: backend is quiescent and safe to recycle.
        self.done = _Latch()
        self.real_thread: Optional[threading.Thread] = None
        self.block_reason: Optional[str] = None
        #: Set by the kernel when a timed condition wait expired; consumed
        #: by :meth:`SimulationBackend.condition_wait` on resumption.
        self.timed_out = False


class _SimHandle(ThreadHandle):
    """Thread handle returned by :meth:`SimulationBackend.spawn`."""

    def __init__(self, sim_thread: _SimThread) -> None:
        self._sim_thread = sim_thread

    def join(self, timeout: Optional[float] = None) -> None:
        # Joining from inside the simulation would deadlock the scheduler, so
        # joining is only meaningful after run() returned; by then the thread
        # has finished.  Waits on the per-thread completion event rather than
        # the carrier OS thread, which is pooled and outlives the run.
        if self._sim_thread.real_thread is not None:
            self._sim_thread.done.wait(timeout)

    @property
    def name(self) -> str:
        return self._sim_thread.name

    @property
    def alive(self) -> bool:
        return self._sim_thread.state is not _State.FINISHED


class SimulationBackend(Backend):
    """Deterministic cooperative backend.

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
        Wall-clock safety net for :meth:`run`; a run that has not finished by
        then is aborted with :class:`SimulationError`.
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

        self._lock = threading.Lock()
        #: Serves :meth:`current_thread`: each carrier thread stores the
        #: _SimThread it is carrying here, in :meth:`_carry`, so simulation
        #: primitives find their thread without the global lock.
        self._tls = threading.local()
        #: Parked carrier OS threads, reused across runs (see
        #: :class:`_Carrier`).
        self._idle_carriers: List[_Carrier] = []
        #: Set when a run left carrier threads stuck (wall-clock hang);
        #: a tainted backend refuses :meth:`recycle` — callers must build
        #: a fresh one.
        self._tainted = False
        self._threads: Dict[int, _SimThread] = {}
        self._next_tid = 0
        self._running = False
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

        Lock-free snapshot intended for decision observers (which already run
        under the kernel lock) and for post-mortem inspection after
        :meth:`run` returned; do not call from unrelated threads mid-run.
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

        The hook runs with the kernel lock held, after timed waits have been
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
        all with the kernel lock held, restricted to the ``inject_*``
        kernel methods below.
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
            # processes, unlike the id()-based fallback.  The counter is
            # monotonic for the backend's lifetime, so reusing one backend
            # for several monitors keeps labels unique but not aligned with
            # a fresh backend's.
            label = f"cond-{self._condition_count}"
        self._condition_count += 1
        condition = SimCondition(self, lock, label=label)
        self._conditions.append(condition)
        return condition

    def spawn(self, target: Callable[[], None], name: Optional[str] = None) -> _SimHandle:
        """Add a new simulated thread.

        Before :meth:`run` starts this registers the thread for the next run;
        while a run is in progress (called from a simulated thread) the new
        thread becomes runnable immediately.
        """
        with self._lock:
            sim_thread = self._create_thread_locked(target, name)
            if self._running:
                self._start_real_thread(sim_thread)
                sim_thread.state = _State.RUNNABLE
                self._runnable.append(sim_thread.tid)
        return _SimHandle(sim_thread)

    # ------------------------------------------------------------------
    # Running a simulation
    # ------------------------------------------------------------------

    def run(
        self,
        targets: Sequence[Callable[[], None]],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        """Run all *targets* as simulated threads until every one finishes.

        Raises :class:`DeadlockError` if all live threads block,
        :class:`SimulationLimitError` if ``max_steps`` is exceeded, and
        re-raises the first exception raised inside a simulated thread.
        """
        if self._running:
            raise SimulationError("run() called while a simulation is already in progress")
        self._reset_run_state()

        with self._lock:
            for index, target in enumerate(targets):
                name = names[index] if names else f"sim-{index}"
                self._create_thread_locked(target, name)
            pending = list(self._threads.values())

        if not pending:
            return

        for sim_thread in pending:
            self._start_real_thread(sim_thread)

        with self._lock:
            self._running = True
            for sim_thread in pending:
                sim_thread.state = _State.RUNNABLE
                self._runnable.append(sim_thread.tid)
            first = self._pick_next_locked()
        if first is not None:
            first.go.set()

        finished = self._done.wait(self._run_timeout)
        if not finished:
            with self._lock:
                # Autopsy first: the abort below unwinds the very
                # bookkeeping (block reasons, waiter queues, predicate
                # entries) the diagnosis needs.
                autopsy = self._hang_autopsy_locked()
                self._abort = True
                self._wake_all_locked()
            self._done.wait(5.0)
            self._running = False
            # Carriers may still be wedged inside the stuck run; never hand
            # them another job.
            self._tainted = True
            raise SimulationHangError(
                f"simulation did not finish within {self._run_timeout} "
                f"seconds\n{autopsy}"
            )

        for sim_thread in self._threads.values():
            if sim_thread.real_thread is not None and not sim_thread.done.wait(timeout=5.0):
                self._tainted = True
        self._running = False

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
            if sim_thread.state is _State.CREATED and sim_thread.real_thread is None
        }
        self._clear_run_fields()
        self._scheduler.reset(self._seed)
        if self._record_trace:
            self._trace = ScheduleTrace()

    def _clear_run_fields(self) -> None:
        """Reset the per-run scheduling and verdict state (shared by
        construction, :meth:`run` and :meth:`recycle`)."""
        self._runnable: List[int] = []
        self._current: Optional[int] = None
        self._abort = False
        self._deadlock_message: Optional[str] = None
        self._abandonment_message: Optional[str] = None
        self._limit_exceeded = False
        self._failures: List[BaseException] = []
        self._done = _Latch()
        self._steps = 0
        #: tid -> (condition, deadline) for threads in a timed condition
        #: wait; deadlines are in scheduling steps (see :meth:`now`).
        self._timed_waits: Dict[int, tuple] = {}
        #: tids the ``thread_crash`` fault marked for death; they raise
        #: :class:`_InjectedDeath` at their next kernel primitive.
        self._doomed: set = set()
        self._recovery_attempts = 0

    def shutdown(self) -> None:
        """Retire this backend's parked carrier threads immediately.

        A discarded backend's carriers otherwise linger for
        :data:`CARRIER_IDLE_TIMEOUT` before releasing their OS threads —
        harmless one at a time, but a workload that churns through backends
        (cold benchmark legs, runtime-cache eviction) can accumulate
        thousands of idle threads and measurably slow the live ones.
        Idempotent; safe between runs.  Stuck carriers of a tainted backend
        are not in the idle pool and stay abandoned, as before.
        """
        with self._lock:
            carriers = self._idle_carriers
            self._idle_carriers = []
        for carrier in carriers:
            carrier.retire()

    def recycle(
        self,
        seed: Optional[int] = None,
        policy: Optional[SchedulerSpec] = None,
    ) -> None:
        """Reset this backend to fresh-construction state, keeping the
        carrier-thread pool.

        After recycling, the backend behaves exactly like a newly
        constructed ``SimulationBackend(seed=..., policy=..., ...)``: thread
        ids restart at 0, condition labels restart at ``cond-0``, metrics
        are zeroed, and all observers/inspectors/injectors are cleared — so
        recorded traces and digests compare bit-for-bit with a fresh
        backend's.  The schedule explorer recycles one backend across the
        thousands of runs of a task instead of paying construction plus OS
        thread spawns every run.

        Raises :class:`SimulationError` if a run is in progress or a
        previous run left carriers stuck (wall-clock hang) — callers should
        fall back to constructing a fresh backend.
        """
        if self._running:
            raise SimulationError("recycle() called while a simulation is in progress")
        if self._tainted:
            raise SimulationError(
                "backend cannot be recycled: a previous run left carrier threads stuck"
            )
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
        self._clear_run_fields()
        self.metrics = BackendMetrics()

    def _create_thread_locked(
        self, target: Callable[[], None], name: Optional[str]
    ) -> _SimThread:
        tid = self._next_tid
        self._next_tid += 1
        sim_thread = _SimThread(tid, name or f"sim-{tid}", target)
        self._threads[tid] = sim_thread
        self.metrics.threads_spawned += 1
        return sim_thread

    def _start_real_thread(self, sim_thread: _SimThread) -> None:
        # Reuse a parked carrier when one is idle; spawn a new one otherwise.
        # List.pop is atomic under the GIL, so both the locked (spawn) and
        # unlocked (run) call sites are safe.
        try:
            carrier = self._idle_carriers.pop()
        except IndexError:
            carrier = _Carrier(self)
        carrier.dispatch(sim_thread)

    def _carry(self, carrier: _Carrier, sim_thread: _SimThread) -> None:
        """Carry one simulated thread through one run (on a carrier thread)."""
        self._tls.sim_thread = sim_thread
        sim_thread.go.wait()
        if not self._abort:
            try:
                sim_thread.target()
            except _SimulationAbort:
                pass
            except _InjectedDeath:
                # The thread_crash fault: die silently, exactly as if the
                # thread vanished mid-flight.  Locks it owns stay owned —
                # abandonment detection (not this handler) reports that.
                pass
            except BaseException as exc:
                with self._lock:
                    self._failures.append(exc)
                    self._abort = True
                    self._wake_all_locked()
        self._on_exit(sim_thread)
        self._tls.sim_thread = None
        # Park first, then signal completion: once every thread's ``done``
        # event is set, all carriers are back in the pool and the backend is
        # quiescent (safe to recycle).
        with self._lock:
            self._idle_carriers.append(carrier)
        sim_thread.done.set()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def current_thread(self) -> _SimThread:
        """Return the simulated thread corresponding to the calling thread.

        Every simulation primitive (lock, condition, yield) starts here, so
        the lookup is served from a ``threading.local`` populated per job in
        :meth:`_carry` — no global lock, no dict lookup.  Any other thread
        (one this backend is not carrying) gets :class:`SimulationError`.
        """
        sim_thread = getattr(self._tls, "sim_thread", None)
        if sim_thread is None:
            raise SimulationError(
                "simulation primitives may only be used from inside a simulated thread"
            )
        return sim_thread

    def current_name(self) -> str:
        """Name of the currently running simulated thread."""
        return self.current_thread().name

    def current_id(self) -> object:
        return self.current_thread().tid

    def _pick_next_locked(self, reason: str = "start") -> Optional[_SimThread]:
        """Choose, dequeue and dispatch-mark the next runnable thread.

        *reason* records why control was up for grabs (the previous thread
        blocked with that reason, yielded, exited, or the run is starting);
        it flows into the recorded :class:`ScheduleTrace` decision points.
        """
        if self._abort:
            return None
        if self._timed_waits:
            self._expire_due_waits_locked()
        if self._fault_injector is not None:
            try:
                self._fault_injector.on_decision(self, self._steps)
            except BaseException as exc:
                self._fail_locked(exc)
                return None
        if self._max_steps is not None and self._steps >= self._max_steps:
            self._limit_exceeded = True
            self._abort = True
            self._wake_all_locked()
            return None
        if not self._runnable:
            return self._handle_no_runnable_locked()
        try:
            index = self._scheduler.choose(self._runnable)
        except BaseException as exc:
            self._fail_locked(exc)
            return None
        if not 0 <= index < len(self._runnable):
            self._fail_locked(
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
            point = SchedulePoint(
                step=self._steps,
                runnable=tuple(sorted(self._runnable + [tid])),
                chosen=tid,
                reason=reason,
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
                self._fail_locked(exc)
                return None
        return sim_thread

    def _fail_locked(self, exc: BaseException) -> None:
        """Abort the run with *exc* from inside the scheduling machinery.

        Scheduler and observer callbacks run on paths (``_on_exit``) outside
        the per-thread try/except in :meth:`_runner`, so their exceptions are
        funnelled through the failure list instead of being allowed to kill a
        carrier thread and hang the run until the timeout.
        """
        self._failures.append(exc)
        self._abort = True
        self._wake_all_locked()

    def _handle_no_runnable_locked(self) -> Optional[_SimThread]:
        live = [t for t in self._threads.values() if t.state is not _State.FINISHED]
        blocked = [t for t in live if t.state is _State.BLOCKED]
        self._current = None
        if not live or not blocked:
            # Either everything finished, or the only live thread is the one
            # currently exiting/blocking — nothing to do until it proceeds.
            if not live:
                self._done.set()
            return None
        # Timed waiters outrank deadlock: with nothing runnable, simulation
        # time jumps to the earliest pending deadline (real time would pass
        # anyway) and the expired waiter gets the monitor back.
        if self._timed_waits:
            self._expire_earliest_waits_locked()
            if self._runnable:
                return self._pick_next_locked(reason="wait timeout")
            return self._handle_no_runnable_locked()
        # Fault injection gets a last word (e.g. a delayed signal still in
        # flight is force-delivered rather than reported as a deadlock).
        if self._fault_injector is not None:
            try:
                rescued = self._fault_injector.on_no_runnable(self)
            except BaseException as exc:
                self._fail_locked(exc)
                return None
            if rescued:
                if self._runnable:
                    return self._pick_next_locked(reason="delayed signal")
                return self._handle_no_runnable_locked()
        details = ", ".join(
            f"{t.name} ({t.block_reason or 'blocked'})" for t in sorted(blocked, key=lambda t: t.tid)
        )
        # A lock owned by a finished thread can never be released: classify
        # as monitor abandonment, not a generic deadlock.
        abandoned = self._find_abandoned_lock_locked()
        if abandoned is not None:
            lock, owner = abandoned
            label = lock.label or "monitor lock"
            self._abandonment_message = (
                f"monitor abandoned: thread {owner.name} finished while "
                f"holding lock {label}; {len(blocked)} blocked thread(s) "
                f"can never run again — {details}"
            )
            self._abort = True
            self._wake_all_locked()
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
                self._grant_lock_to_waiter_locked(condition, waiter_tid)
                if self._runnable:
                    return self._pick_next_locked(reason="self-heal")
                return self._handle_no_runnable_locked()
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
        self._wake_all_locked()
        return None

    def _wake_all_locked(self) -> None:
        for sim_thread in self._threads.values():
            if sim_thread.state is not _State.FINISHED:
                sim_thread.go.set()

    def _make_runnable_locked(self, tid: int) -> None:
        sim_thread = self._threads[tid]
        if sim_thread.state is _State.FINISHED:
            raise SimulationError(f"cannot make finished thread {sim_thread.name} runnable")
        sim_thread.state = _State.RUNNABLE
        sim_thread.block_reason = None
        self._runnable.append(tid)

    def _block_and_pick_next_locked(
        self, sim_thread: _SimThread, reason: str
    ) -> Optional[_SimThread]:
        sim_thread.state = _State.BLOCKED
        sim_thread.block_reason = reason
        return self._pick_next_locked(reason=reason)

    def _handoff_and_wait(
        self, sim_thread: _SimThread, next_thread: Optional[_SimThread]
    ) -> None:
        if next_thread is sim_thread:
            # The scheduler picked the calling thread again (it was the only
            # runnable one); keep running without parking on the event.
            if self._abort:
                raise _SimulationAbort()
            return
        if next_thread is not None:
            next_thread.go.set()
        if self._abort:
            # Never park once the run is unwinding: a thread re-entering a
            # primitive during exception cleanup (e.g. a condition waiter
            # re-acquiring the monitor lock) has already consumed its
            # one-shot wake-all token, so parking here would wedge it until
            # the external run timeout.  Any abort set after this check is
            # caught below — its wake-all sets the event this thread is
            # about to wait on.
            raise _SimulationAbort()
        sim_thread.go.wait()
        if self._abort:
            raise _SimulationAbort()

    def _on_exit(self, sim_thread: _SimThread) -> None:
        next_thread = None
        with self._lock:
            sim_thread.state = _State.FINISHED
            if self._current == sim_thread.tid:
                self._current = None
            if self._abort:
                if all(t.state is _State.FINISHED for t in self._threads.values()):
                    self._done.set()
                return
            next_thread = self._pick_next_locked(reason="exit")
            if next_thread is None and all(
                t.state is _State.FINISHED for t in self._threads.values()
            ):
                self._done.set()
        if next_thread is not None:
            next_thread.go.set()
        elif self._abort:
            # A deadlock or limit was detected while picking the next thread.
            with self._lock:
                if all(t.state is _State.FINISHED for t in self._threads.values()):
                    self._done.set()

    def yield_control(self) -> None:
        """Voluntarily hand control to another runnable thread (if any)."""
        sim_thread = self.current_thread()
        with self._lock:
            self._check_doomed_locked(sim_thread)
            self._runnable.append(sim_thread.tid)
            sim_thread.state = _State.RUNNABLE
            next_thread = self._pick_next_locked(reason="yield")
        self._handoff_and_wait(sim_thread, next_thread)

    # ------------------------------------------------------------------
    # Lock operations (called by SimLock)
    # ------------------------------------------------------------------

    def lock_acquire(self, lock: SimLock) -> None:
        sim_thread = self.current_thread()
        with self._lock:
            self._check_doomed_locked(sim_thread)
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
            wait_reason = (
                f"waiting for lock {lock.label}" if lock.label else "waiting for lock"
            )
            next_thread = self._block_and_pick_next_locked(sim_thread, wait_reason)
        self._handoff_and_wait(sim_thread, next_thread)
        with self._lock:
            if lock.owner != sim_thread.tid:
                raise SimulationError(
                    "internal error: thread resumed from lock wait without ownership"
                )
            self.metrics.lock_acquisitions += 1

    def lock_release(self, lock: SimLock) -> None:
        sim_thread = self.current_thread()
        with self._lock:
            self._check_doomed_locked(sim_thread)
            if lock.owner != sim_thread.tid:
                raise SimulationError(
                    f"thread {sim_thread.name} released a lock it does not hold"
                )
            self._release_lock_locked(lock)

    def _release_lock_locked(self, lock: SimLock) -> None:
        if lock.queue:
            next_tid = lock.queue.popleft()
            lock.owner = next_tid
            self._make_runnable_locked(next_tid)
        else:
            lock.owner = None

    # ------------------------------------------------------------------
    # Condition operations (called by SimCondition)
    # ------------------------------------------------------------------

    def condition_wait(
        self, condition: SimCondition, timeout: Optional[float] = None
    ) -> bool:
        sim_thread = self.current_thread()
        with self._lock:
            self._check_doomed_locked(sim_thread)
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
            self._release_lock_locked(condition.lock)
            label = condition.label if condition.label is not None else f"{id(condition):#x}"
            next_thread = self._block_and_pick_next_locked(
                sim_thread, f"waiting on condition {label}"
            )
        self._handoff_and_wait(sim_thread, next_thread)
        with self._lock:
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
        with self._lock:
            if self._abort:
                # Threads unwinding an aborted run race each other through
                # the monitor's exit relay; counting or delivering their
                # notifications would make the run's counters depend on
                # which carrier the OS scheduled first.
                raise _SimulationAbort()
            self._check_doomed_locked(sim_thread)
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
                    self._fail_locked(exc)
                    raise _SimulationAbort()
                if suppressed:
                    # The fault swallowed (or detached, for delayed delivery)
                    # this notification; the waiters stay parked.
                    return
            for _ in range(count):
                waiter_tid = condition.waiters.popleft()
                self.metrics.notified_threads += 1
                self._grant_lock_to_waiter_locked(condition, waiter_tid)

    def _grant_lock_to_waiter_locked(
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
            self._make_runnable_locked(waiter_tid)
        else:
            condition.lock.queue.append(waiter_tid)

    def condition_waiter_count(self, condition: SimCondition) -> int:
        with self._lock:
            return len(condition.waiters)

    # ------------------------------------------------------------------
    # Timed waits
    # ------------------------------------------------------------------

    def _expire_due_waits_locked(self) -> None:
        """Expire every timed wait whose deadline has passed (in step time)."""
        due = sorted(
            (deadline, tid)
            for tid, (_, deadline) in self._timed_waits.items()
            if deadline <= self._steps
        )
        for _, tid in due:
            self._expire_wait_locked(tid)

    def _expire_earliest_waits_locked(self) -> None:
        """Jump simulation time to the earliest pending deadline and expire
        every wait due then.  Called only when nothing is runnable."""
        earliest = min(deadline for (_, deadline) in self._timed_waits.values())
        due = sorted(
            (deadline, tid)
            for tid, (_, deadline) in self._timed_waits.items()
            if deadline <= earliest
        )
        for _, tid in due:
            self._expire_wait_locked(tid)

    def _expire_wait_locked(self, tid: int) -> None:
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
        if condition.lock.owner is None:
            condition.lock.owner = tid
            self._make_runnable_locked(tid)
        else:
            condition.lock.queue.append(tid)

    # ------------------------------------------------------------------
    # Fault injection surface (called by repro.faults with the kernel
    # lock held, from injector hooks only)
    # ------------------------------------------------------------------

    def _check_doomed_locked(self, sim_thread: _SimThread) -> None:
        if self._doomed and sim_thread.tid in self._doomed:
            self._doomed.discard(sim_thread.tid)
            raise _InjectedDeath()

    def inject_wake_one_waiter_locked(self) -> Optional[int]:
        """Spuriously wake the longest waiter of the first populated
        condition; returns its tid, or None when nobody is waiting."""
        for condition in self._conditions:
            if condition.waiters:
                waiter_tid = condition.waiters.popleft()
                self._grant_lock_to_waiter_locked(condition, waiter_tid)
                return waiter_tid
        return None

    def inject_doom_lock_owner_locked(self) -> Optional[int]:
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

    def inject_detach_waiter_locked(self, condition: SimCondition) -> Optional[int]:
        """Remove (without waking) the longest waiter of *condition*;
        returns its tid, or None.  The delayed-signal fault re-delivers the
        detached waiter later via :meth:`inject_deliver_waiter_locked`."""
        if condition.waiters:
            return condition.waiters.popleft()
        return None

    def inject_deliver_waiter_locked(self, condition: SimCondition, tid: int) -> bool:
        """Deliver a previously detached waiter back into *condition*'s lock
        queue, as if its notification just arrived.  Returns False when the
        thread is gone or already runnable (e.g. its timed wait expired)."""
        sim_thread = self._threads.get(tid)
        if sim_thread is None or sim_thread.state is not _State.BLOCKED:
            return False
        if condition.lock.owner == tid or tid in condition.lock.queue:
            return False
        self.metrics.notified_threads += 1
        self._grant_lock_to_waiter_locked(condition, tid)
        return True

    # ------------------------------------------------------------------
    # Hang autopsy and abandonment detection
    # ------------------------------------------------------------------

    def _find_abandoned_lock_locked(self) -> Optional[tuple]:
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

    def _hang_autopsy_locked(self) -> str:
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
