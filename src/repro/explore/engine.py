"""The schedule-exploration engine: run, classify, and enumerate schedules.

A *schedule* is fully determined by the sequence of decisions the kernel's
scheduler makes (see :meth:`~repro.runtime.simulation.schedulers.ScheduleTrace.choices`:
one index into the sorted runnable set per decision point).  The engine runs
one schedule at a time with a fresh backend and monitor, evaluates the
problem's oracles at every decision point, and classifies the result:

================  ==============================================================
kind              meaning
================  ==============================================================
``ok``            the run finished and the post-run ``verify()`` passed
``oracle:<name>`` a safety/liveness oracle reported a violation mid-run
``missed_signal`` all threads deadlocked *while some waiter's predicate was
                  true* — the automatic-signal property the paper proves
``deadlock``      all threads deadlocked with no eligible waiter
``postcondition`` the run finished but the problem's ``verify()`` failed
``step_limit``    the per-run scheduling-step budget was exhausted
``divergence``    a replayed/prefixed schedule no longer matches the program
``error:<Type>``  any other exception escaping the run
================  ==============================================================

Exhaustive search (plain DFS and ``--dpor``, one serial frontier loop) and
random swarm exploration are thin loops over this primitive; both report an
:class:`ExplorationReport`.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import MonitorError, RelayInvarianceError, WaitTimeout
from repro.core.monitor import MonitorBase
from repro.harness.execution import FrozenMapping, create_executor
from repro.problems import get_problem
from repro.runtime.simulation import (
    DeadlockError,
    MonitorAbandonedError,
    PrefixScheduler,
    ScheduleDivergenceError,
    ScheduleTrace,
    Scheduler,
    SimulationBackend,
    SimulationError,
    SimulationHangError,
    SimulationLimitError,
)
from repro.runtime.simulation.schedulers import RandomScheduler, SchedulePoint

__all__ = [
    "OracleViolationError",
    "StopRun",
    "StarvationBudgetWatcher",
    "ExploreTask",
    "TaskRuntime",
    "ScheduleOutcome",
    "ExplorationFailure",
    "ExplorationReport",
    "task_runtime",
    "clear_runtime_cache",
    "run_schedule",
    "run_prefix",
    "explore_dfs",
    "explore_swarm",
]

#: Default per-run scheduling-step budget (a guard against livelock; far
#: above anything the explorer's small workloads need).
DEFAULT_MAX_STEPS = 100_000


class OracleViolationError(Exception):
    """An oracle reported a violation at a scheduling decision point."""

    def __init__(self, oracle_name: str, message: str, kind: str = "safety") -> None:
        super().__init__(f"oracle {oracle_name!r} violated: {message}")
        self.oracle_name = oracle_name
        self.oracle_kind = kind
        self.detail = message


class StopRun(Exception):
    """Raised by an instrument's ``observe`` to end a run early.

    :func:`run_schedule` classifies the stopped run as ``ok`` without
    calling ``verify()``: the instrument vouches that the run's
    continuation from the current decision is explored by other runs (the
    DPOR explorer raises it at an already-explored configuration).  The
    oracles have checked the current state; the trace ends at it.
    """


class StarvationBudgetWatcher:
    """Liveness oracle: no thread may stay blocked for too many decisions.

    A thread that remains blocked while the run makes *budget* consecutive
    scheduling decisions is starved: other threads kept entering and leaving
    the monitor without its predicate ever being satisfied and signalled.
    This is meaningful under fair-ish schedulers (the swarm's random
    scheduler); under adversarial DFS prefixes short budgets misfire, which
    is why the budget is opt-in per task.
    """

    def __init__(self, backend: SimulationBackend, budget: int) -> None:
        if budget < 1:
            raise ValueError(f"starvation budget must be >= 1, got {budget}")
        self._backend = backend
        self._budget = budget
        self._streaks: Dict[int, int] = {}

    def observe(self, point: SchedulePoint) -> None:
        blocked = self._backend.blocked_threads()
        blocked_tids = set()
        for tid, name, reason in blocked:
            blocked_tids.add(tid)
            streak = self._streaks.get(tid, 0) + 1
            self._streaks[tid] = streak
            if streak > self._budget:
                raise OracleViolationError(
                    "starvation_budget",
                    f"thread {name} stayed blocked ({reason}) for {streak} "
                    f"consecutive scheduling decisions (budget {self._budget})",
                    kind="liveness",
                )
        for tid in list(self._streaks):
            if tid not in blocked_tids:
                del self._streaks[tid]


@dataclass(frozen=True)
class ExploreTask:
    """One exploration target: a (problem, mechanism, size) configuration.

    Frozen and fully picklable, so swarm probes can be shipped to worker
    processes through the executor registry.
    """

    problem: str
    mechanism: str
    threads: int = 2
    total_ops: int = 4
    seed: int = 0
    validate: bool = False
    max_steps: Optional[int] = DEFAULT_MAX_STEPS
    #: Liveness budget (see :class:`StarvationBudgetWatcher`); ``None``
    #: defers to the problem's own ``starvation_budget`` declaration.
    starvation_budget: Optional[int] = None
    problem_params: Mapping[str, object] = field(default_factory=dict)
    #: For problems compiled from a declarative scenario registered at
    #: runtime (fuzz-generated or ``--scenario``-loaded): the spec as a
    #: plain dict.  Makes the task self-contained — a worker process that
    #: never saw the parent's registration (``spawn`` start method) or a
    #: fresh replay process re-registers the scenario before resolving the
    #: problem name.
    scenario: Optional[dict] = None
    #: Fault plan injected into every run of this task: a registered plan
    #: name or an embedded plan dictionary (see :mod:`repro.faults.plan`).
    #: Carried in repro files so chaos failures replay with their faults.
    fault_plan: Optional[object] = None
    #: Install the monitor's self-healing deadlock-recovery hook
    #: (:meth:`AutoSynchMonitor.try_self_heal`) on the kernel.
    self_heal: bool = False
    #: Wall-clock safety net per run, in seconds (None: the kernel default).
    #: When it fires, the run is classified ``hang`` with a full autopsy.
    run_timeout: Optional[float] = None
    #: Default ``wait_until`` timeout in scheduling steps (None: waits are
    #: unbounded); an expiry classifies the run as ``timeout``.
    wait_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.problem_params, FrozenMapping):
            object.__setattr__(
                self, "problem_params", FrozenMapping(self.problem_params)
            )

    def resolve_problem(self):
        """Resolve the task's problem, registering its scenario if carried.

        The common path (the scenario is already registered — every probe
        after a worker's first) is a dict comparison against the registered
        spec's serialized form; the full parse + validate + monitor
        compilation only happens when the spec is new to this process.
        """
        if self.scenario is not None:
            from repro.scenarios import ScenarioSpec, register_scenario, scenario_for

            current = scenario_for(self.problem)
            if current is None or current.to_dict() != self.scenario:
                register_scenario(
                    ScenarioSpec.from_dict(self.scenario), replace=True
                )
        return get_problem(self.problem)

    def to_dict(self) -> dict:
        data = {
            "problem": self.problem,
            "mechanism": self.mechanism,
            "threads": self.threads,
            "total_ops": self.total_ops,
            "seed": self.seed,
            "validate": self.validate,
            "max_steps": self.max_steps,
            "starvation_budget": self.starvation_budget,
            "problem_params": dict(self.problem_params),
        }
        if self.scenario is not None:
            data["scenario"] = self.scenario
        if self.fault_plan is not None:
            data["fault_plan"] = self.fault_plan
        if self.self_heal:
            data["self_heal"] = True
        if self.run_timeout is not None:
            data["run_timeout"] = self.run_timeout
        if self.wait_timeout is not None:
            data["wait_timeout"] = self.wait_timeout
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExploreTask":
        # Older repro files carry an ``eval_engine`` key; both of its values
        # evaluate predicates identically, so it is dropped.
        data = {key: value for key, value in data.items() if key != "eval_engine"}
        return cls(**data)


@dataclass(frozen=True)
class ScheduleOutcome:
    """The classified result of running one schedule."""

    status: str  # "ok" | "failure"
    kind: str  # see the module docstring's table
    message: str
    trace: ScheduleTrace
    backend_metrics: dict
    #: Monitor counters after the run (quarantines, demotions, self-heal
    #: recoveries, faults injected, ...) — what chaos oracles assert on.
    monitor_stats: dict = field(default_factory=dict)
    #: Fault firings recorded by the injector, in order (empty without one).
    fault_events: Tuple[dict, ...] = ()
    #: Per-stage wall-clock seconds for this run: ``build`` (problem/monitor
    #: construction up to the workload start), ``run`` (workload execution +
    #: verify), ``classify`` (verdict classification and outcome assembly)
    #: and ``oracle`` (per-decision oracle checks, a sub-bucket of ``run``).
    timings: Mapping[str, float] = field(default_factory=dict)

    @cached_property
    def digest(self) -> str:
        """Stable hex digest of the executed schedule.

        Lazy: DFS/DPOR only read digests on failing runs, so clean
        exhaustive sweeps skip the hash entirely; swarm/chaos dedup still
        computes it on first access.  (``cached_property`` writes the
        instance ``__dict__`` directly, so it works on a frozen dataclass.)
        """
        return self.trace.digest()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def steps(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class ExplorationFailure:
    """One failing schedule, in replayable form."""

    kind: str
    message: str
    #: Decision sequence (sorted-runnable indices) reproducing the failure
    #: through :class:`~repro.runtime.simulation.schedulers.PrefixScheduler`.
    prefix: Tuple[int, ...]
    trace: ScheduleTrace
    digest: str
    #: The swarm seed that found it (None for DFS failures).
    seed: Optional[int] = None


@dataclass
class ExplorationReport:
    """Aggregate result of one DFS or swarm exploration."""

    task: ExploreTask
    mode: str  # "dfs" | "swarm"
    schedules_visited: int = 0
    #: DFS only: the decision tree was exhausted (no schedule cap was hit),
    #: so the absence of failures is a proof at this problem size — over
    #: every schedule when ``depth_capped`` is 0, otherwise over every
    #: schedule whose forced decisions fit the depth bound.
    complete: bool = False
    failures: List[ExplorationFailure] = field(default_factory=list)
    #: Total failing schedules seen (``failures`` is capped; this is not).
    failures_total: int = 0
    #: Longest recorded trace, in scheduling steps (every hand-off counts,
    #: including forced ones with a single runnable thread).
    max_trace_steps: int = 0
    #: Deepest *decision* reached: the most decision points with >= 2
    #: runnable threads seen in any single run.  This — not the step count —
    #: is what ``max_depth`` bounds during DFS branching.
    max_decision_depth: int = 0
    #: DFS only: how many runs kept making decisions beyond the depth bound
    #: (their deeper alternatives were not branched on).
    depth_capped: int = 0
    #: Mode-specific counters (the DPOR explorer reports its pruning stats
    #: here); empty for plain DFS/swarm.
    stats: Dict[str, int] = field(default_factory=dict)
    #: Per-stage wall-clock seconds summed over every run (see
    #: :attr:`ScheduleOutcome.timings`) — the profile future perf work aims
    #: at.  Excluded from serial-vs-parallel equivalence comparisons.
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def max_depth(self) -> int:
        """Deprecated alias for :attr:`max_trace_steps` (the historical
        field conflated trace steps with decision depth; both are now
        reported distinctly)."""
        return self.max_trace_steps

    @property
    def ok(self) -> bool:
        return self.failures_total == 0

    def failure_kinds(self) -> Dict[str, int]:
        kinds: Dict[str, int] = {}
        for failure in self.failures:
            kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
        return kinds

    def summary(self) -> str:
        if not self.complete:
            shape = "sampled"
        elif self.depth_capped:
            shape = f"exhaustive within depth bound; {self.depth_capped} runs capped"
        else:
            shape = "exhaustive"
        lines = [
            f"{self.mode} exploration of {self.task.problem} "
            f"[{self.task.mechanism}] threads={self.task.threads} "
            f"ops={self.task.total_ops}: {self.schedules_visited} schedules "
            f"({shape}), max {self.max_trace_steps} steps / "
            f"{self.max_decision_depth} decisions, "
            f"{self.failures_total} failing"
        ]
        for kind, count in sorted(self.failure_kinds().items()):
            lines.append(f"  {kind}: {count} collected")
        return "\n".join(lines)


class _MissedSignalProbe:
    """Deadlock inspector distinguishing missed signals from true deadlocks.

    Runs at the instant the kernel detects the deadlock — while waiting
    threads still hold their predicate entries — and records whether some
    waiter's predicate was actually *true*: in that case a thread should
    have been signalled and was not, which is exactly the property
    ("automatic monitors never miss a signal") the paper argues.
    """

    def __init__(self, monitor: MonitorBase) -> None:
        self._monitor = monitor
        self.missed: Optional[str] = None

    def __call__(self) -> Optional[str]:
        manager = getattr(self._monitor, "condition_manager", None)
        if manager is None:
            return None
        entry = manager.find_missed_waiter()
        if entry is None:
            return None
        self.missed = entry.canonical
        return (
            f"missed signal: predicate {entry.canonical!r} is true with "
            f"{entry.unsignalled_waiters} un-signalled waiter(s)"
        )

    @property
    def kind(self) -> str:
        return "missed_signal" if self.missed is not None else "deadlock"


def _waiter_autopsy(monitor: MonitorBase) -> Callable[[], Optional[str]]:
    """Hang-inspector closure over *monitor*'s predicate table.

    When the kernel's wall-clock safety net fires, this contributes the
    monitor-level half of the autopsy: which predicates threads are parked
    on, how many waiters each has, and how many signals were promised but
    never consumed.
    """

    def inspect() -> Optional[str]:
        manager = getattr(monitor, "condition_manager", None)
        if manager is None:
            return None
        parts = []
        for canonical in manager.known_predicates():
            entry = manager.entry_for(canonical)
            if entry is None or entry.waiters == 0:
                continue
            parts.append(
                f"{canonical!r}: {entry.waiters} waiter(s), "
                f"{entry.pending_signals} promised signal(s)"
            )
        return "; ".join(parts) if parts else None

    return inspect


class TaskRuntime:
    """Run-invariant artifacts of one :class:`ExploreTask`.

    Exploring a task runs the same configuration thousands of times; the
    resolved problem, the parsed fault plan and — most importantly — a
    recyclable :class:`SimulationBackend` with its warm carrier-thread pool
    are identical across those runs.  A ``TaskRuntime`` holds them so a run
    only pays backend reset + workload execution instead of a cold build.

    Normally obtained through the process-wide seed-normalized cache
    (:func:`task_runtime`); tests construct one directly to compare cached
    against uncached behaviour.
    """

    def __init__(self, task: ExploreTask, problem: object = None) -> None:
        self.task = task
        self.problem = problem if problem is not None else task.resolve_problem()
        self.params = dict(task.problem_params)
        self._fault_plan = None
        if task.fault_plan is not None:
            from repro.faults import create_fault_plan

            self._fault_plan = create_fault_plan(task.fault_plan)
        self._backend: Optional[SimulationBackend] = None

    def build_injector(self):
        """A fresh fault injector from the (pre-parsed) plan, or None."""
        return self._fault_plan.build() if self._fault_plan is not None else None

    def acquire_backend(self, scheduler: Scheduler, seed: int) -> SimulationBackend:
        """The pooled backend, recycled for this run — or a fresh one.

        Recycling resets the backend to fresh-construction state (see
        :meth:`SimulationBackend.recycle`), so traces and digests compare
        bit-for-bit with an uncached run's.  A backend tainted by a hung
        run refuses to recycle and is silently replaced.
        """
        backend, self._backend = self._backend, None
        if backend is not None:
            try:
                backend.recycle(seed=seed, policy=scheduler)
                return backend
            except SimulationError:
                # Tainted by a hung run: retire what's retirable and fall
                # through to a fresh build.
                backend.shutdown()
        kwargs = {}
        if self.task.run_timeout is not None:
            kwargs["run_timeout"] = self.task.run_timeout
        return SimulationBackend(
            seed=seed,
            policy=scheduler,
            max_steps=self.task.max_steps,
            record_trace=True,
            **kwargs,
        )

    def release_backend(self, backend: SimulationBackend) -> None:
        """Park *backend* for the next run of this task."""
        self._backend = backend

    def close(self) -> None:
        """Retire the parked backend's carrier threads immediately.

        Without this a discarded runtime's carriers linger for the kernel's
        idle timeout; a workload that churns through runtimes (cache
        eviction, cold benchmark legs) would pile up idle OS threads.
        """
        backend, self._backend = self._backend, None
        if backend is not None:
            backend.shutdown()


#: Process-wide TaskRuntime cache, keyed by the task's serialized form with
#: the seed normalized out (swarm/chaos probes differ only by seed and share
#: one runtime; the per-run seed is applied at backend recycle time).  Small
#: LRU: exploration focuses on a handful of tasks at a time.
_RUNTIME_CACHE: "OrderedDict[str, TaskRuntime]" = OrderedDict()
_RUNTIME_CACHE_LIMIT = 8


def _runtime_key(task: ExploreTask) -> str:
    data = task.to_dict()
    data["seed"] = 0
    return json.dumps(data, sort_keys=True, default=str)


def task_runtime(task: ExploreTask) -> TaskRuntime:
    """The cached :class:`TaskRuntime` for *task* (building it on a miss).

    Re-resolves the problem on every call — a registry lookup, plus a spec
    comparison for scenario tasks — so a scenario re-registered under the
    same name since the runtime was cached invalidates it instead of
    serving a stale problem object.
    """
    key = _runtime_key(task)
    runtime = _RUNTIME_CACHE.get(key)
    current = task.resolve_problem()
    if runtime is None or runtime.problem is not current:
        if runtime is not None:
            runtime.close()  # stale scenario: retire its carriers now
        runtime = TaskRuntime(task, problem=current)
        _RUNTIME_CACHE[key] = runtime
        while len(_RUNTIME_CACHE) > _RUNTIME_CACHE_LIMIT:
            _RUNTIME_CACHE.popitem(last=False)[1].close()
    _RUNTIME_CACHE.move_to_end(key)
    return runtime


def clear_runtime_cache() -> None:
    """Drop every cached :class:`TaskRuntime` (benchmarking/test hook),
    retiring their carrier threads."""
    while _RUNTIME_CACHE:
        _RUNTIME_CACHE.popitem()[1].close()


def _forget_runtimes_after_fork() -> None:
    """Empty the runtime cache in a forked child.

    The cached backends dispatch to carrier threads that exist only in the
    parent; a child dispatching to them would wait forever.  The entries are
    dropped, not closed: retiring a carrier signals a thread the child does
    not have.
    """
    _RUNTIME_CACHE.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_runtimes_after_fork)


def starvation_budget(task: ExploreTask, problem: object) -> Optional[int]:
    """The task's liveness budget, deferring to the problem's declaration."""
    if task.starvation_budget is not None:
        return task.starvation_budget
    return problem.starvation_budget


def run_schedule(
    task: ExploreTask,
    scheduler: Scheduler,
    instrument: Optional[Callable[[SimulationBackend, "WorkloadSpec"], object]] = None,
    runtime: Optional[TaskRuntime] = None,
    verified_depth: int = 0,
) -> ScheduleOutcome:
    """Run one schedule of *task* under *scheduler* and classify the result.

    Builds a fresh monitor on a recycled backend (schedules are only
    comparable when nothing leaks between runs; recycling is
    bit-equivalent to a fresh backend), records the decision trace, and
    checks the problem's oracles at every decision point.

    ``instrument``, when given, is called with the fresh backend and built
    workload before the run; the object it returns may expose ``observe(point)``
    (chained after the oracles at every decision).  An ``observe`` that raises
    :class:`StopRun` ends the run as ``ok`` at that decision, without
    ``verify()``.  The DPOR explorer uses this to build abstract
    configurations at every decision point and to stop at explored ones.

    ``runtime`` supplies the task's cached build artifacts; None uses the
    process-wide cache (:func:`task_runtime`).

    ``verified_depth`` marks the first *verified_depth* decisions as a
    shared prefix whose states the parent run already oracle-checked:
    stateless oracle checks are skipped inside it (the fast
    replay-to-depth path).  Callers must only pass depths whose prefix
    decisions come from a parent run that checked those very states.
    """
    t_start = perf_counter()
    if runtime is None:
        runtime = task_runtime(task)
    problem = runtime.problem
    backend = runtime.acquire_backend(scheduler, task.seed)
    spec = problem.build(
        task.mechanism,
        backend,
        threads=task.threads,
        total_ops=task.total_ops,
        seed=task.seed,
        validate=task.validate,
        **runtime.params,
    )
    if task.wait_timeout is not None:
        spec.monitor._wait_timeout = task.wait_timeout
    injector = runtime.build_injector()
    if injector is not None:
        injector.attach(backend, spec.monitor)
    if task.self_heal:
        heal = getattr(spec.monitor, "try_self_heal", None)
        if heal is not None:
            backend.set_deadlock_recovery(heal)
    backend.set_hang_inspector(_waiter_autopsy(spec.monitor))
    oracles = problem.oracles(spec.monitor)
    budget = starvation_budget(task, problem)
    # `is not None` (not truthiness): a budget of 0 must hit the watcher's
    # >= 1 validation rather than silently disable liveness checking.
    watcher = (
        StarvationBudgetWatcher(backend, budget) if budget is not None else None
    )
    if watcher is not None:
        # Starvation streak counters cross the prefix boundary; the watcher
        # must observe every decision, so prefix sharing cannot skip it.
        verified_depth = 0
    probe_observe = None
    if instrument is not None:
        probe_observe = getattr(instrument(backend, spec), "observe", None)

    oracle_seconds = 0.0

    def observer(point: SchedulePoint) -> None:
        nonlocal oracle_seconds
        if point.step >= verified_depth:
            t_oracle = perf_counter()
            for oracle in oracles:
                message = oracle.check()
                if message is not None:
                    raise OracleViolationError(oracle.name, message, kind=oracle.kind)
            if watcher is not None:
                watcher.observe(point)
            oracle_seconds += perf_counter() - t_oracle
        if probe_observe is not None:
            probe_observe(point)

    backend.set_observer(observer)
    probe = _MissedSignalProbe(spec.monitor)
    backend.set_deadlock_inspector(probe)

    t_built = perf_counter()
    status, kind, message = "ok", "ok", ""
    try:
        backend.run(spec.targets, spec.names)
        spec.verify()
    except StopRun as exc:
        message = str(exc)
    except OracleViolationError as exc:
        status, kind, message = "failure", f"oracle:{exc.oracle_name}", str(exc)
    except DeadlockError as exc:
        status, kind, message = "failure", probe.kind, str(exc)
    except RelayInvarianceError as exc:
        # Validate mode caught a relay step losing a signal mid-run.
        status, kind, message = "failure", "missed_signal", str(exc)
    except WaitTimeout as exc:
        # Before MonitorError: WaitTimeout is a MonitorError, but an expired
        # timed wait is a bounded, classified verdict — not a generic error.
        status, kind, message = "failure", "timeout", str(exc)
    except MonitorAbandonedError as exc:
        status, kind, message = "failure", "abandonment", str(exc)
    except MonitorError as exc:
        status, kind, message = "failure", f"error:{type(exc).__name__}", str(exc)
    except SimulationHangError as exc:
        # The wall-clock safety net fired; the message carries the autopsy.
        status, kind, message = "failure", "hang", str(exc)
    except SimulationLimitError as exc:
        status, kind, message = "failure", "step_limit", str(exc)
    except ScheduleDivergenceError as exc:
        status, kind, message = "failure", "divergence", str(exc)
    except AssertionError as exc:
        status, kind, message = "failure", "postcondition", str(exc)
    except Exception as exc:
        status, kind, message = "failure", f"error:{type(exc).__name__}", str(exc)
    t_ran = perf_counter()
    trace = backend.schedule_trace
    stats = getattr(spec.monitor, "stats", None)
    outcome = ScheduleOutcome(
        status=status,
        kind=kind,
        message=message,
        trace=trace,
        backend_metrics=backend.metrics.snapshot(),
        monitor_stats=stats.snapshot() if stats is not None else {},
        fault_events=tuple(injector.events) if injector is not None else (),
        timings={
            "build": t_built - t_start,
            "run": t_ran - t_built,
            "classify": perf_counter() - t_ran,
            "oracle": oracle_seconds,
        },
    )
    runtime.release_backend(backend)
    return outcome


def run_prefix(
    task: ExploreTask,
    prefix: Sequence[int],
    instrument: Optional[Callable[[SimulationBackend, "WorkloadSpec"], object]] = None,
    runtime: Optional[TaskRuntime] = None,
    verified_depth: int = 0,
) -> ScheduleOutcome:
    """Run the schedule identified by a decision *prefix* (DFS coordinates)."""
    return run_schedule(
        task,
        PrefixScheduler(prefix),
        instrument=instrument,
        runtime=runtime,
        verified_depth=verified_depth,
    )


#: Keep at most this many failures in a report by default (every failing
#: schedule is still *counted*; this caps memory, not detection).
DEFAULT_FAILURE_LIMIT = 25


def _count_run(
    report: ExplorationReport,
    outcome: ScheduleOutcome,
    progress: Optional[Callable[[int, ScheduleOutcome], None]],
) -> None:
    """Fold one run into *report*'s totals, then report progress."""
    report.schedules_visited += 1
    report.max_trace_steps = max(report.max_trace_steps, outcome.steps)
    report.max_decision_depth = max(
        report.max_decision_depth,
        sum(1 for point in outcome.trace.points if point.branching > 1),
    )
    aggregate = report.timings
    for stage, seconds in outcome.timings.items():
        aggregate[stage] = aggregate.get(stage, 0.0) + seconds
    if progress is not None:
        progress(report.schedules_visited, outcome)


def _every_alternative(depth: int, point: SchedulePoint) -> List[Tuple[int, None]]:
    """Plain DFS's branching rule: every alternative the run did not take
    (a run past its prefix always takes index 0)."""
    return [(alt, None) for alt in range(1, point.branching)]


def _explore_frontier(
    task: ExploreTask,
    mode: str,
    reducer: Optional[object],
    max_schedules: Optional[int],
    max_depth: Optional[int],
    failure_limit: int,
    stop_on_failure: bool,
    progress: Optional[Callable[[int, ScheduleOutcome], None]],
) -> ExplorationReport:
    """The serial frontier loop behind :func:`explore_dfs` and
    :func:`~repro.explore.dpor.explore_dpor`.

    Frontier entries are ``(prefix, verified_depth, inherited)``.  The
    states reached by the first *verified_depth* decisions were already
    oracle-checked by the parent run that enqueued the entry, so the
    child's replay of that prefix skips the stateless oracle checks.
    *inherited* is whatever the reducer attached to the entry (None for
    plain DFS).  Child prefixes are distinct by construction: each extends
    its run's own prefix at a decision at or past the prefix's end.

    A *reducer* prunes the search through two hooks, and its ``stats``
    become the report's:

    * ``run(prefix, inherited, runtime, verified_depth)`` executes one
      entry (with whatever instrument the reducer needs);
    * ``alternatives(depth, point)`` lists ``(alt, inherited)`` for the
      children to enqueue at decision *depth* of the run just executed.

    Without a reducer every entry is a bare :func:`run_prefix` and every
    untried alternative is enqueued.
    """
    report = ExplorationReport(
        task=task, mode=mode, stats=reducer.stats if reducer is not None else {}
    )
    alternatives = reducer.alternatives if reducer is not None else _every_alternative
    runtime = task_runtime(task)
    frontier: List[Tuple[Tuple[int, ...], int, object]] = [((), 0, None)]
    while frontier:
        if max_schedules is not None and report.schedules_visited >= max_schedules:
            return report
        prefix, verified_depth, inherited = frontier.pop()
        if reducer is None:
            outcome = run_prefix(
                task, prefix, runtime=runtime, verified_depth=verified_depth
            )
        else:
            outcome = reducer.run(prefix, inherited, runtime, verified_depth)
        _count_run(report, outcome, progress)
        trace = outcome.trace
        choices = trace.choices()
        # ``max_depth`` is an inclusive decision index: alternatives at
        # exactly that depth are still branched (hence the ``+ 1``).
        branch_until = len(choices)
        if max_depth is not None and branch_until > max_depth + 1:
            branch_until = max_depth + 1
            report.depth_capped += 1
        # A child shares this run's states up to its own prefix length; all
        # of them passed this run's oracle checks except, on a failing run,
        # the final recorded state (the one a mid-run oracle fired on).
        child_cap = len(choices) if outcome.ok else max(len(choices) - 1, 0)
        # Branch at every decision at or beyond the prefix (decisions inside
        # it were enumerated by the ancestors that forced them).  A run whose
        # choices do not extend its own prefix diverged from it: its children
        # would not extend the prefix either and could repeat a sibling's,
        # so it enqueues none.
        if choices[: len(prefix)] == prefix:
            for depth in range(len(prefix), branch_until):
                for alt, state in alternatives(depth, trace[depth]):
                    child = choices[:depth] + (alt,)
                    frontier.append((child, min(len(child), child_cap), state))
        if not outcome.ok:
            report.failures_total += 1
            if len(report.failures) < failure_limit:
                report.failures.append(
                    ExplorationFailure(
                        kind=outcome.kind,
                        message=outcome.message,
                        prefix=choices,
                        trace=trace,
                        digest=outcome.digest,
                    )
                )
            if stop_on_failure:
                return report
    report.complete = True
    return report


def explore_dfs(
    task: ExploreTask,
    max_schedules: Optional[int] = None,
    max_depth: Optional[int] = None,
    failure_limit: int = DEFAULT_FAILURE_LIMIT,
    stop_on_failure: bool = False,
    progress: Optional[Callable[[int, ScheduleOutcome], None]] = None,
) -> ExplorationReport:
    """Bounded exhaustive DFS over the scheduling-decision tree of *task*.

    Every run's trace exposes, at each decision point, how many runnable
    threads there were; each untried alternative becomes a new prefix to
    explore.  With ``max_schedules=None`` the search runs until the tree is
    exhausted and the report's ``complete`` flag is set — at which point a
    clean report is a proof over *every* schedule of this configuration
    (every schedule within the depth bound when one was needed).

    ``max_depth`` bounds the decision depth at which new branches are taken.
    It exists because some policies have *infinite* schedule trees: under
    the broadcast baseline, two waiters with false predicates can wake each
    other forever, so an adversarial schedule can always be extended.  Runs
    still continue past the bound (with the default continuation) so their
    verdicts are real; only their deeper alternatives are pruned, and
    ``report.depth_capped`` counts how often that happened.

    The search is serial: a schedule costs a fraction of a millisecond,
    less than shipping it to a worker process.  ``--dpor``
    (:func:`~repro.explore.dpor.explore_dpor`) runs the same loop with
    pruning plugged in.
    """
    return _explore_frontier(
        task, "dfs", None, max_schedules, max_depth, failure_limit,
        stop_on_failure, progress,
    )


@dataclass(frozen=True)
class _SwarmProbe:
    """One random schedule to try: picklable unit of swarm work."""

    task: ExploreTask
    seed: int


def _run_swarm_probe(probe: _SwarmProbe) -> ScheduleOutcome:
    """Top-level (hence picklable) swarm worker entry point."""
    task = replace(probe.task, seed=probe.seed)
    return run_schedule(task, RandomScheduler(probe.seed))


def explore_swarm(
    task: ExploreTask,
    schedules: int,
    base_seed: int = 0,
    executor: str = "serial",
    jobs: Optional[int] = None,
    failure_limit: int = DEFAULT_FAILURE_LIMIT,
    progress: Optional[Callable[[int, ScheduleOutcome], None]] = None,
) -> ExplorationReport:
    """Seeded random swarm exploration, sharded through the executor registry.

    Runs *schedules* independent probes with seeds ``base_seed ..
    base_seed + schedules - 1``; each probe reseeds both the random
    scheduler and the workload, so distinct seeds genuinely explore distinct
    schedules.  ``executor``/``jobs`` resolve through
    :mod:`repro.harness.execution` exactly like experiment sweeps
    (``"process"`` shards probes across worker processes).
    """
    if schedules < 1:
        raise ValueError(f"swarm exploration needs >= 1 schedule, got {schedules}")
    report = ExplorationReport(task=task, mode="swarm")
    probes = [_SwarmProbe(task, base_seed + offset) for offset in range(schedules)]
    seen_digests: set = set()

    def on_probe(index: int, probe: _SwarmProbe, outcome: ScheduleOutcome) -> None:
        _count_run(report, outcome, progress)
        if outcome.ok:
            return
        report.failures_total += 1
        # The same failing schedule can be found by many seeds; keep each
        # distinct schedule once.
        if outcome.digest in seen_digests or len(report.failures) >= failure_limit:
            return
        seen_digests.add(outcome.digest)
        report.failures.append(
            ExplorationFailure(
                kind=outcome.kind,
                message=outcome.message,
                prefix=outcome.trace.choices(),
                trace=outcome.trace,
                digest=outcome.digest,
                seed=probe.seed,
            )
        )

    create_executor(executor, jobs=jobs).run_tasks(
        _run_swarm_probe, probes, progress=on_probe
    )
    return report
