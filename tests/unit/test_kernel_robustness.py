"""Kernel robustness: thread-crash abandonment, hang autopsy, self-healing hook,
counters of runs an observer aborts, and bodies that will not unwind."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.faults import FaultInjector, create_fault
from repro.problems import get_problem
from repro.runtime import SimulationBackend
from repro.runtime.simulation import (
    DeadlockError,
    MonitorAbandonedError,
    PrefixScheduler,
    SimulationError,
    SimulationHangError,
)

SRC = Path(__file__).resolve().parents[2] / "src"


class TestAbandonmentDetection:
    def _crash_owner_run(self):
        """Two threads; a fault kills the lock owner, the other stays queued."""
        backend = SimulationBackend(seed=0)
        injector = FaultInjector([create_fault("thread_crash", at_step=0)])
        injector.attach(backend)
        lock = backend.create_lock(label="monitor-lock")

        def victim():
            lock.acquire()
            # The doom lands at the next primitive call; the lock is never
            # released.
            backend.yield_control()
            lock.release()

        def waiter():
            backend.yield_control()
            lock.acquire()
            lock.release()

        return backend, injector, victim, waiter

    def test_dead_lock_owner_is_classified_as_abandonment(self):
        backend, injector, victim, waiter = self._crash_owner_run()
        with pytest.raises(MonitorAbandonedError) as excinfo:
            backend.run([victim, waiter], ["victim", "waiter"])
        message = str(excinfo.value)
        assert "victim" in message
        assert injector.fired == 1

    def test_abandonment_is_not_a_deadlock(self):
        backend, _, victim, waiter = self._crash_owner_run()
        # MonitorAbandonedError must not be swallowed by handlers that catch
        # DeadlockError (it is a sibling, both SimulationError).
        assert not issubclass(MonitorAbandonedError, DeadlockError)
        assert issubclass(MonitorAbandonedError, SimulationError)
        with pytest.raises(SimulationError):
            backend.run([victim, waiter])

    def test_crash_without_contention_just_finishes(self):
        backend = SimulationBackend(seed=0)
        injector = FaultInjector([create_fault("thread_crash", at_step=0)])
        injector.attach(backend)
        lock = backend.create_lock()
        done = []

        def victim():
            lock.acquire()
            backend.yield_control()
            lock.release()

        def bystander():
            done.append(True)

        # Nobody is stuck behind the abandoned lock: the run completes.
        backend.run([victim, bystander])
        assert done == [True]
        assert injector.fired == 1


class TestHangAutopsy:
    def _hanging_run(self, run_timeout=0.3):
        backend = SimulationBackend(seed=0, run_timeout=run_timeout, record_trace=True)
        lock = backend.create_lock()
        condition = backend.create_condition(lock, label="never-signalled")

        def parked():
            lock.acquire()
            condition.wait()
            lock.release()

        def spinner():
            # Yields forever: the run keeps deciding but is not deadlocked,
            # so only the wall-clock net catches it.
            while True:
                backend.yield_control()

        return backend, parked, spinner

    def test_wall_clock_hang_raises_with_autopsy(self):
        backend, parked, spinner = self._hanging_run()
        with pytest.raises(SimulationHangError) as excinfo:
            backend.run([parked, spinner], ["parked-thread", "spinner"])
        message = str(excinfo.value)
        assert "parked: parked-thread — waiting on condition never-signalled" in message
        assert "1/2 live thread(s) blocked" in message

    def test_hang_autopsy_includes_recent_decisions(self):
        backend, parked, spinner = self._hanging_run()
        with pytest.raises(SimulationHangError) as excinfo:
            backend.run([parked, spinner])
        message = str(excinfo.value)
        assert "last 10 schedule decision(s):" in message
        assert "chose 1 of [1] (yield)" in message

    def test_hang_inspector_contributes_detail(self):
        backend, parked, spinner = self._hanging_run()
        backend.set_hang_inspector(lambda: "three widgets still pending")
        with pytest.raises(SimulationHangError) as excinfo:
            backend.run([parked, spinner])
        assert "waiters: three widgets still pending" in str(excinfo.value)

    def test_hang_error_is_a_simulation_error(self):
        # Callers that catch SimulationError for "run did not finish" keep
        # working when the wall-clock net fires.
        assert issubclass(SimulationHangError, SimulationError)


class TestDeadlockRecoveryHook:
    def test_recovery_hook_wakes_a_waiter_instead_of_deadlocking(self):
        backend = SimulationBackend(seed=0)
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        woken = []

        def waiter():
            lock.acquire()
            condition.wait()
            woken.append(True)
            lock.release()

        backend.set_deadlock_recovery(lambda: condition)
        backend.run([waiter])
        assert woken == [True]

    def test_recovery_hook_returning_none_still_deadlocks(self):
        backend = SimulationBackend(seed=0)
        lock = backend.create_lock()
        condition = backend.create_condition(lock)

        def waiter():
            lock.acquire()
            condition.wait()
            lock.release()

        backend.set_deadlock_recovery(lambda: None)
        with pytest.raises(DeadlockError):
            backend.run([waiter])

    def test_recovery_attempts_are_bounded(self):
        from repro.runtime.simulation.kernel import RECOVERY_ATTEMPT_LIMIT

        backend = SimulationBackend(seed=0)
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        attempts = []

        def waiter():
            lock.acquire()
            while True:
                # Every recovery wake loops straight back into waiting: a
                # recovery hook that never fixes anything must not spin the
                # kernel forever.
                condition.wait()

        def hook():
            attempts.append(True)
            return condition

        backend.set_deadlock_recovery(hook)
        with pytest.raises(DeadlockError):
            backend.run([waiter])
        assert len(attempts) == RECOVERY_ATTEMPT_LIMIT


class _StopAt(Exception):
    pass


class TestAbortedRunCounters:
    """An observer that aborts a run mid-flight unwinds every parked thread
    through the monitor's exit relay at once; the run's counters must not
    depend on which carrier the OS scheduled first.  The prefixes are
    bounded-buffer schedules whose unwinding raced before notifications
    were refused on an aborting run."""

    def _aborted_run(self, prefix):
        backend = SimulationBackend(seed=1, policy=PrefixScheduler(prefix))
        spec = get_problem("bounded_buffer").build(
            "autosynch", backend, threads=3, total_ops=9, seed=1
        )
        stop_at = len(prefix) - 1

        def observer(point):
            if point.step == stop_at:
                raise _StopAt()

        backend.set_observer(observer)
        with pytest.raises(_StopAt):
            backend.run(spec.targets, spec.names)
        return backend.metrics.snapshot(), spec.monitor.stats.snapshot()

    @pytest.mark.parametrize(
        "prefix",
        [
            (3, 4, 2, 3, 2, 0, 1, 1, 0, 0),
            (3, 4, 1, 2, 2, 1, 0),
            (3, 3, 3, 1, 2, 1, 0),
        ],
    )
    def test_counters_repeat_exactly(self, prefix):
        first = self._aborted_run(prefix)
        assert first[0]["context_switches"] == len(prefix)
        for _ in range(19):
            assert self._aborted_run(prefix) == first


def _stubborn(backend, honour_close=False):
    """A body that catches ``BaseException`` around a primitive in a loop."""

    async def stubborn():
        while True:
            try:
                await backend.yield_async()
            except GeneratorExit:
                if honour_close:
                    return
            except BaseException:
                pass

    return stubborn


def _within(seconds, call):
    """*call*'s result or exception, from a daemon thread given *seconds*:
    an unbounded unwinding fails the test instead of hanging the suite."""
    result = []

    def drive():
        try:
            result.append(call())
        except BaseException as exc:
            result.append(exc)

    driver = threading.Thread(target=drive, daemon=True)
    driver.start()
    driver.join(seconds)
    assert not driver.is_alive(), "the aborted run kept resuming the stubborn body"
    return result[0]


#: Runs stubborn bodies in a process of its own, so that a body that spins
#: once it is finalized (during a recycle, a collection or the interpreter's
#: shutdown) fails the test by timing out instead of hanging the suite.
_STUBBORN_SCRIPT = """
import gc

from repro.explore.engine import ExploreTask, TaskRuntime, run_prefix
from repro.problems import PROBLEMS, Problem, WorkloadSpec
from repro.problems.bounded_buffer import AutoBoundedBuffer
from repro.runtime import SimulationBackend
from repro.runtime.simulation import SimulationHangError


def stubborn_body(backend):
    async def stubborn():
        while True:
            try:
                await backend.yield_async()
            except BaseException:
                pass

    return stubborn


backend = SimulationBackend(seed=0, max_steps=5)
try:
    backend.run([stubborn_body(backend)])
except SimulationHangError:
    print("named")
backend.recycle()
gc.collect()
backend.run([])
print("ran again")


class StubbornProblem(Problem):
    name = "stubborn"

    def build(self, mechanism, backend, threads, total_ops, seed=0,
              validate=False, **params):
        monitor = AutoBoundedBuffer(1, **self.monitor_kwargs(mechanism, backend, validate))
        return WorkloadSpec(monitor, [stubborn_body(backend)], ["stubborn"])


# Build, rebuild and record, then restore: each schedule's aborted body
# outlives its run and the runtime's recycling of the backend.
PROBLEMS["stubborn"] = StubbornProblem()
task = ExploreTask("stubborn", "autosynch", max_steps=20)
runtime = TaskRuntime(task)
print(*[run_prefix(task, (), runtime=runtime).kind for _ in range(3)])
runtime.close()
gc.collect()
"""


class TestUnwindingStubbornBodies:
    """The kernel resumes an aborted body a bounded number of times, then
    closes its coroutine; one that survives even that is named in a
    :class:`SimulationHangError` and never finalized (finalizing would run
    its loop again outside any run, where every primitive raises)."""

    def _run(self, body):
        backend = SimulationBackend(seed=0)

        async def worker():
            for _ in range(10):
                await backend.yield_async()

        def observer(point):
            if point.step == 3:
                raise _StopAt()

        backend.set_observer(observer)

        def run():
            try:
                backend.run([body(backend), worker], ["stubborn", "worker"])
            except BaseException as exc:
                error = type(exc), str(exc)
            return error, {t.state.value for t in backend._threads.values()}

        error, states = _within(10.0, run)
        assert states == {"finished"}
        return error

    def test_body_that_ignores_close_is_named(self):
        kind, message = self._run(_stubborn)
        assert kind is SimulationHangError
        assert "stubborn" in message and "survived close()" in message

    def test_body_that_honours_close_ends_the_run_with_its_verdict(self):
        assert self._run(lambda b: _stubborn(b, honour_close=True))[0] is _StopAt

    def test_bodies_that_survive_close_are_never_finalized(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", _STUBBORN_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "named\nran again\nhang hang hang\n"), (
            done.stderr
        )
