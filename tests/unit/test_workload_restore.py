"""A workload restored between schedules is a fresh build.

The explorer builds a task's workload on a :class:`TaskRuntime`, records
its initial state at the seed's second run and restores it before every
later schedule of that seed (:mod:`repro.explore.restore`).
These tests hold the restore to a fresh build on a fresh backend:

* after full and aborted runs, the state at decision 0 — the monitor's
  fields, its stats and write tracker, the bodies' closure data, the
  kernel's ``sync_state()`` and its lock and condition labels — equals a
  fresh build's;
* the outcomes of a fixed set of prefixes (digest, verdict, counters) equal
  a fresh runtime's, for every built-in problem under every mechanism, the
  checked-in ``scenarios/ping_pong.json`` and a problem that creates kernel
  locks at build time;
* builds draw on the seed: swarm probes (one runtime across seeds) match
  uncached runs;
* a value the restore cannot handle is refused when the state is recorded
  (at a seed's second run), and probes that never repeat a seed record
  nothing.
"""

from __future__ import annotations

import importlib.util
import random
import types
from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.monitor import MonitorBase
from repro.core.signalling import register_policy, unregister_policy
from repro.explore.engine import (
    ExploreTask,
    StopRun,
    TaskRuntime,
    clear_runtime_cache,
    explore_swarm,
    run_prefix,
    run_schedule,
)
from repro.problems import PROBLEMS, Problem, WorkloadSpec
from repro.problems.bounded_buffer import AutoBoundedBuffer
from repro.runtime.simulation.schedulers import RandomScheduler
from repro.runtime.simulation.sync import SimCondition, SimLock
from repro.scenarios import load_scenario_file, register_scenario, unregister_scenario

TESTS = Path(__file__).resolve().parents[1]
PING_PONG = TESTS.parent / "scenarios" / "ping_pong.json"

#: Prefixes run on one reused runtime, in this order, and each on a fresh
#: runtime: completed runs, runs that diverge and runs whose prefix ends
#: mid-workload.
PREFIXES = [(), (1,), (1, 1, 0), (2, 0, 1), (0, 1, 1, 0, 1), (3, 2, 1, 0), ()]


def _seeded_defects():
    """The seeded-defect suite's module, for its build-time-lock problem."""
    path = TESTS / "integration" / "test_seeded_defects.py"
    spec = importlib.util.spec_from_file_location("_seeded_defects", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plain(value, seen=None):
    """*value* as comparable plain data; kernel objects by label and
    state, monitors by class, functions by their closure data."""
    seen = set() if seen is None else seen
    if isinstance(value, (int, float, str, bytes, type(None))):
        return value
    if isinstance(value, (list, tuple, deque)):
        return [type(value).__name__, [_plain(item, seen) for item in value]]
    if isinstance(value, dict):
        return ["dict", [(_plain(k, seen), _plain(v, seen)) for k, v in value.items()]]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted(map(repr, value))]
    if isinstance(value, random.Random):
        return ["Random", value.getstate()]
    if isinstance(value, SimLock):
        return ["lock", value.label, value.owner, list(value.queue)]
    if isinstance(value, SimCondition):
        return ["cond", value.label, list(value.waiters)]
    if isinstance(value, MonitorBase):
        return ["monitor", type(value).__name__]
    if isinstance(value, types.FunctionType):
        if id(value) in seen:
            return ["fn", value.__qualname__]
        seen.add(id(value))
        cells = []
        for name, cell in zip(value.__code__.co_freevars, value.__closure__ or ()):
            try:
                cells.append((name, _plain(cell.cell_contents, seen)))
            except ValueError:
                cells.append((name, "<empty>"))
        return ["fn", value.__qualname__, _plain(value.__defaults__, seen), cells]
    return ["obj", type(value).__name__]


class _Snapshot:
    """Instrument: the workload's state at decision 0, then stop."""

    def __init__(self, backend, spec: WorkloadSpec) -> None:
        self._backend = backend
        self._spec = spec
        self.state = None

    def observe(self, point) -> None:
        backend, spec = self._backend, self._spec
        monitor = spec.monitor
        tracker = getattr(monitor, "write_tracker", None)
        manager = getattr(monitor, "condition_manager", None)
        self.state = {
            "fields": _plain(vars(monitor)),
            "stats": monitor.stats.snapshot(),
            "tracker": None if tracker is None else (
                tracker.clock, dict(tracker.versions), sorted(tracker._dirty)
            ),
            "predicates": None if manager is None else manager.known_predicates(),
            "bodies": [_plain(target) for target in spec.targets],
            "verify": _plain(spec.verify),
            "sync": backend.sync_state(),
            "locks": [lock.label for lock in backend._locks],
            "conds": [condition.label for condition in backend._conditions],
        }
        raise StopRun("snapshot taken")


def _decision_zero(task: ExploreTask, runtime: TaskRuntime) -> dict:
    snapshots = []

    def instrument(backend, spec):
        snapshots.append(_Snapshot(backend, spec))
        return snapshots[-1]

    outcome = run_prefix(task, (), instrument=instrument, runtime=runtime)
    assert outcome.ok, outcome.message
    return snapshots[0].state


def _signature(outcome) -> tuple:
    return (outcome.kind, outcome.message, outcome.digest, outcome.backend_metrics,
            outcome.monitor_stats, outcome.fault_events)


def assert_restore_is_fresh(task: ExploreTask) -> None:
    reused = TaskRuntime(task)
    first = _decision_zero(task, reused)
    for prefix in PREFIXES:
        restored = run_prefix(task, prefix, runtime=reused)
        fresh = run_prefix(task, prefix, runtime=TaskRuntime(task))
        assert _signature(restored) == _signature(fresh), prefix
    assert _decision_zero(task, reused) == _decision_zero(task, TaskRuntime(task)) == first


def _cases():
    for name, problem in sorted(PROBLEMS.items()):
        for mechanism in problem.supported_mechanisms():
            yield name, mechanism


@pytest.mark.parametrize("problem,mechanism", list(_cases()))
def test_builtin_problem_restores_to_a_fresh_build(problem, mechanism):
    assert_restore_is_fresh(ExploreTask(problem, mechanism, threads=2, total_ops=4))


@pytest.mark.parametrize("mechanism", ["autosynch", "baseline", "relay_batched"])
def test_validate_mode_restores_to_a_fresh_build(mechanism):
    assert_restore_is_fresh(ExploreTask(
        "sleeping_barber", mechanism, threads=2, total_ops=4, validate=True
    ))


def test_checked_in_scenario_restores_to_a_fresh_build():
    problem = register_scenario(load_scenario_file(PING_PONG), replace=True)
    try:
        for mechanism in problem.supported_mechanisms():
            assert_restore_is_fresh(ExploreTask("ping_pong", mechanism, threads=2, total_ops=6))
    finally:
        unregister_scenario("ping_pong")


def test_build_time_locks_are_kept_and_cleared():
    problem = _seeded_defects().UnorderedDiningProblem()
    PROBLEMS[problem.name] = problem
    try:
        task = ExploreTask(problem.name, "explicit", threads=2, total_ops=2)
        assert_restore_is_fresh(task)
        # A deadlocked run leaves the forks owned and queued: the next run
        # starts with them free, as built.
        runtime = TaskRuntime(task)
        deadlock = next(
            prefix for prefix in [(0, 1), (1, 0), (0, 0, 1), (1, 1, 0)]
            if run_prefix(task, prefix, runtime=runtime).kind == "deadlock"
        )
        assert _signature(run_prefix(task, deadlock, runtime=runtime)) == _signature(
            run_prefix(task, deadlock, runtime=TaskRuntime(task))
        )
        assert _decision_zero(task, runtime) == _decision_zero(task, TaskRuntime(task))
    finally:
        del PROBLEMS[problem.name]


@pytest.mark.parametrize("plan", ["predicate_error", "tracker_amnesia", "mixed"])
def test_fault_plans_restore_to_a_fresh_build(plan):
    # A quarantined predicate stays quarantined: a restored monitor must not
    # carry one into the next schedule, and an amnesiac tracker is replaced.
    assert_restore_is_fresh(ExploreTask("bounded_buffer", "autosynch", threads=2,
                                        total_ops=4, fault_plan=plan, self_heal=True))


def test_policy_fields_restore_to_a_fresh_build():
    # The seeded defect's lossy policy keeps a "dropped once" flag of its
    # own: each schedule must start with it unset, as a fresh bind has it.
    seeded = _seeded_defects()
    register_policy(seeded.LossyRelayPolicy)
    try:
        task = ExploreTask("bounded_buffer", seeded.LOSSY, threads=1, total_ops=2,
                           problem_params={"capacity": 1})
        assert_restore_is_fresh(task)
        runtime = TaskRuntime(task)
        kinds = [run_prefix(task, prefix, runtime=runtime).kind
                 for prefix in [(), (1,), (0, 1), (1, 1), ()]]
        fresh = [run_prefix(task, prefix, runtime=TaskRuntime(task)).kind
                 for prefix in [(), (1,), (0, 1), (1, 1), ()]]
        assert kinds == fresh and "missed_signal" in kinds
    finally:
        unregister_policy(seeded.LOSSY)


class _ClosureStateProblem(Problem):
    """Bodies that rebind a closure cell and mutate a set, a deque, a dict
    and a random generator — state only the closures hold."""

    name = "restore_closure_state_test"

    def build(self, mechanism, backend, threads, total_ops, seed=0,
              validate=False, **params):
        monitor = AutoBoundedBuffer(1, **self.monitor_kwargs(mechanism, backend, validate))
        done = 0
        seen = set()
        log = deque()
        tally = {"taken": 0}
        rng = random.Random(seed)

        def producer():
            nonlocal done
            for _ in range(total_ops):
                monitor.put(rng.randint(0, 99))
                done += 1

        def consumer():
            for _ in range(total_ops):
                item = monitor.take()
                seen.add(item)
                log.append(item)
                tally["taken"] += 1

        def verify():
            assert done == total_ops and tally["taken"] == total_ops
            assert len(log) == total_ops

        return WorkloadSpec(monitor, [producer, consumer], ["producer", "consumer"], verify)


class _OpaqueProblem(Problem):
    """A body closing over a value the restore cannot handle."""

    name = "restore_opaque_test"

    def build(self, mechanism, backend, threads, total_ops, seed=0,
              validate=False, **params):
        monitor = AutoBoundedBuffer(1, **self.monitor_kwargs(mechanism, backend, validate))
        handle = object()

        def producer():
            monitor.put(handle)

        return WorkloadSpec(monitor, [producer], ["producer"])


@pytest.fixture
def registered():
    problems = [_ClosureStateProblem(), _OpaqueProblem()]
    for problem in problems:
        PROBLEMS[problem.name] = problem
    try:
        yield
    finally:
        for problem in problems:
            del PROBLEMS[problem.name]


def test_closure_state_restores_to_a_fresh_build(registered):
    assert_restore_is_fresh(ExploreTask(_ClosureStateProblem.name, "autosynch",
                                        total_ops=3))


def test_unrestorable_value_is_refused_when_recorded(registered):
    # A seed's first run builds without recording; its second run records
    # the state it would restore, and refuses what it cannot.
    task = ExploreTask(_OpaqueProblem.name, "autosynch")
    runtime = TaskRuntime(task)
    assert run_prefix(task, (), runtime=runtime).ok
    with pytest.raises(TypeError, match=r"closure cell 'handle' of function .*producer "
                                        r"holds a object"):
        run_prefix(task, (), runtime=runtime)


def test_probes_with_new_seeds_record_nothing(registered):
    # Swarm probes build once each: nothing is recorded, so a workload the
    # restore could not handle still runs.
    task = ExploreTask(_OpaqueProblem.name, "autosynch")
    runtime = TaskRuntime(task)
    for seed in range(1, 6):
        assert run_schedule(replace(task, seed=seed), RandomScheduler(seed),
                            runtime=runtime).ok


class TestSeededBuilds:
    """Builds draw on the seed: parameterized_bounded_buffer draws its batch
    sizes from it, so a runtime that served one seed's build to another
    would change the probes' schedules."""

    TASK = ExploreTask("parameterized_bounded_buffer", "autosynch",
                       threads=2, total_ops=4)

    def test_swarm_probes_match_uncached_runtimes(self):
        clear_runtime_cache()
        probes = []
        explore_swarm(self.TASK, schedules=8, base_seed=1,
                      progress=lambda count, outcome: probes.append(outcome))
        uncached = []
        for seed in range(1, 9):
            task = replace(self.TASK, seed=seed)
            uncached.append(run_schedule(task, RandomScheduler(seed),
                                         runtime=TaskRuntime(task)))
        assert [o.digest for o in probes] == [o.digest for o in uncached]
        # The seeds build different workloads: their batch sizes, and so
        # their monitor entries, differ.
        assert len({o.monitor_stats["entries"] for o in uncached}) > 1

    def test_one_runtime_alternating_seeds_matches_fresh_builds(self):
        runtime = TaskRuntime(self.TASK)
        for seed in (1, 2, 1, 1, 2):
            task = replace(self.TASK, seed=seed)
            cached = run_prefix(task, (1, 0), runtime=runtime)
            fresh = run_prefix(task, (1, 0), runtime=TaskRuntime(task))
            assert _signature(cached) == _signature(fresh), seed
