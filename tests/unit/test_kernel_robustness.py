"""Kernel robustness: thread-crash abandonment, hang autopsy, self-healing hook,
and counters of runs an observer aborts."""

from __future__ import annotations

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
