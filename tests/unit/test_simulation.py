"""Unit tests for the deterministic simulation backend."""

from __future__ import annotations

import threading

import pytest

from repro.runtime import DeadlockError, SimulationBackend
from repro.runtime.simulation import SimulationError, SimulationLimitError


class TestBasicExecution:
    def test_run_executes_all_targets(self, sim_backend):
        results = []

        def first():
            results.append(1)

        def second():
            results.append(2)

        sim_backend.run([first, second])
        assert sorted(results) == [1, 2]

    def test_run_with_no_targets(self, sim_backend):
        sim_backend.run([])

    def test_exceptions_propagate(self, sim_backend):
        def boom():
            raise ValueError("inside simulation")

        with pytest.raises(ValueError, match="inside simulation"):
            sim_backend.run([boom])

    def test_backend_is_reusable_across_runs(self, sim_backend):
        counter = []

        def count():
            counter.append(len(counter) + 1)

        sim_backend.run([count])
        sim_backend.run([count])
        assert counter == [1, 2]

    def test_run_while_running_is_rejected(self, sim_backend):
        def idle():
            pass

        async def nested():
            sim_backend.run([idle])

        with pytest.raises(SimulationError, match="already in progress"):
            sim_backend.run([nested])

    def test_current_name_and_id(self, sim_backend):
        seen = []

        def worker():
            seen.append((sim_backend.current_name(), sim_backend.current_id()))

        sim_backend.run([worker], ["worker-a"])
        assert seen == [("worker-a", 0)]

    def test_primitives_outside_simulation_are_rejected(self, sim_backend):
        # Only a simulated thread of a backend may use its primitives: the
        # main thread, a plain OS thread started mid-run and a simulated
        # thread of another backend all get the same SimulationError.
        lock = sim_backend.create_lock()
        expected = "simulation primitives may only be used from inside a simulated thread"
        with pytest.raises(SimulationError, match=expected):
            lock.acquire()
        other = SimulationBackend(seed=2)
        messages = []

        def probe(target):
            try:
                target.acquire()
            except SimulationError as error:
                messages.append(str(error))

        async def worker():
            plain = threading.Thread(target=probe, args=(lock,))
            plain.start()
            plain.join()
            probe(other.create_lock())

        sim_backend.run([worker])
        assert messages == [expected, expected]

    @pytest.mark.parametrize(
        "primitive",
        ["lock_release", "wait", "notify", "notify_all", "yield_control", "current_name"],
    )
    def test_every_primitive_rejects_an_unsimulated_caller(self, sim_backend, primitive):
        lock = sim_backend.create_lock()
        condition = sim_backend.create_condition(lock)
        calls = {
            "lock_release": lock.release,
            "wait": condition.wait,
            "notify": condition.notify,
            "notify_all": condition.notify_all,
            "yield_control": sim_backend.yield_control,
            "current_name": sim_backend.current_name,
        }
        with pytest.raises(
            SimulationError,
            match="simulation primitives may only be used from inside a simulated thread",
        ):
            calls[primitive]()

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SimulationBackend(policy="priority")


class TestLocks:
    def test_mutual_exclusion(self, any_sim_backend):
        backend = any_sim_backend
        lock = backend.create_lock()
        inside = []
        overlaps = []

        def worker():
            for _ in range(20):
                lock.acquire()
                inside.append(1)
                if len(inside) > 1:
                    overlaps.append(True)
                backend.yield_control()
                inside.pop()
                lock.release()

        backend.run([worker, worker, worker])
        assert not overlaps

    def test_reacquiring_held_lock_is_an_error(self, sim_backend):
        lock = sim_backend.create_lock()

        def worker():
            lock.acquire()
            lock.acquire()

        with pytest.raises(SimulationError, match="re-acquire a lock it already holds"):
            sim_backend.run([worker])

    def test_releasing_unheld_lock_is_an_error(self, sim_backend):
        lock = sim_backend.create_lock()

        def worker():
            lock.release()

        with pytest.raises(SimulationError, match="released a lock it does not hold"):
            sim_backend.run([worker])

    def test_lock_contention_is_counted(self, sim_backend):
        lock = sim_backend.create_lock()

        def worker():
            lock.acquire()
            sim_backend.yield_control()
            lock.release()

        sim_backend.run([worker, worker])
        assert sim_backend.metrics.lock_contentions >= 1
        assert sim_backend.metrics.lock_acquisitions == 2


class TestConditions:
    def test_wait_requires_the_lock(self, sim_backend):
        lock = sim_backend.create_lock()
        condition = sim_backend.create_condition(lock)

        def worker():
            condition.wait()

        with pytest.raises(SimulationError, match="wait\\(\\) without holding the monitor lock"):
            sim_backend.run([worker])

    def test_notify_requires_the_lock(self, sim_backend):
        lock = sim_backend.create_lock()
        condition = sim_backend.create_condition(lock)

        def worker():
            condition.notify()

        with pytest.raises(SimulationError, match="notify without holding the monitor lock"):
            sim_backend.run([worker])

    def test_notify_wakes_one_waiter(self, sim_backend):
        lock = sim_backend.create_lock()
        condition = sim_backend.create_condition(lock)
        woken = []

        def waiter(tag):
            def body():
                lock.acquire()
                condition.wait()
                woken.append(tag)
                lock.release()
            return body

        def notifier():
            lock.acquire()
            condition.notify()
            lock.release()
            lock.acquire()
            condition.notify()
            lock.release()

        sim_backend.run([waiter("a"), waiter("b"), notifier])
        assert sorted(woken) == ["a", "b"]
        assert sim_backend.metrics.notifies == 2
        assert sim_backend.metrics.notified_threads == 2

    def test_notify_all_wakes_everyone(self, sim_backend):
        lock = sim_backend.create_lock()
        condition = sim_backend.create_condition(lock)
        woken = []

        def waiter(tag):
            def body():
                lock.acquire()
                condition.wait()
                woken.append(tag)
                lock.release()
            return body

        def notifier():
            lock.acquire()
            condition.notify_all()
            lock.release()

        sim_backend.run([waiter(1), waiter(2), waiter(3), notifier])
        assert sorted(woken) == [1, 2, 3]
        assert sim_backend.metrics.notify_alls == 1
        assert sim_backend.metrics.notified_threads == 3

    def test_condition_requires_simulation_lock(self, sim_backend):
        with pytest.raises(TypeError):
            sim_backend.create_condition(object())

    def test_waiter_count(self, sim_backend):
        lock = sim_backend.create_lock()
        condition = sim_backend.create_condition(lock)
        counts = []

        def waiter():
            lock.acquire()
            condition.wait()
            lock.release()

        def observer():
            counts.append(condition.waiter_count())
            lock.acquire()
            condition.notify()
            lock.release()

        sim_backend.run([waiter, observer])
        assert counts == [1]


class TestDeterminismAndPolicies:
    def _producer_consumer_counts(self, seed, policy):
        backend = SimulationBackend(seed=seed, policy=policy)
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        queue = []

        def producer():
            for index in range(50):
                lock.acquire()
                queue.append(index)
                condition.notify()
                lock.release()

        def consumer():
            for _ in range(50):
                lock.acquire()
                while not queue:
                    condition.wait()
                queue.pop(0)
                lock.release()

        backend.run([producer, consumer])
        return backend.metrics.snapshot()

    def test_same_seed_same_schedule(self):
        first = self._producer_consumer_counts(11, "random")
        second = self._producer_consumer_counts(11, "random")
        assert first == second

    def test_different_seeds_may_differ_but_stay_correct(self):
        # Not asserting inequality (schedules can coincide), only that both
        # runs complete and count something.
        for seed in (1, 2, 3):
            snapshot = self._producer_consumer_counts(seed, "random")
            assert snapshot["context_switches"] > 0

    def test_fifo_policy_is_deterministic(self):
        assert self._producer_consumer_counts(0, "fifo") == self._producer_consumer_counts(
            99, "fifo"
        )


class TestFailureModes:
    def test_deadlock_detection(self, sim_backend):
        first = sim_backend.create_lock()
        second = sim_backend.create_lock()

        def one():
            first.acquire()
            sim_backend.yield_control()
            second.acquire()

        def two():
            second.acquire()
            sim_backend.yield_control()
            first.acquire()

        with pytest.raises(DeadlockError) as excinfo:
            sim_backend.run([one, two], ["alpha", "beta"])
        message = str(excinfo.value)
        assert "alpha" in message and "beta" in message

    def test_lost_wakeup_results_in_deadlock_error(self, sim_backend):
        lock = sim_backend.create_lock()
        condition = sim_backend.create_condition(lock)

        def waiter():
            lock.acquire()
            condition.wait()
            lock.release()

        with pytest.raises(DeadlockError):
            sim_backend.run([waiter])

    def test_step_limit(self):
        backend = SimulationBackend(seed=0, max_steps=10)

        def chatty():
            for _ in range(100):
                backend.yield_control()

        with pytest.raises(SimulationLimitError):
            backend.run([chatty, chatty])

    def test_context_switches_counted(self, sim_backend):
        def worker():
            for _ in range(5):
                sim_backend.yield_control()

        sim_backend.run([worker, worker])
        assert sim_backend.metrics.context_switches >= 10
