"""The ``ConditionAPI.notify_n`` bulk-wakeup contract, on every backend.

One call wakes ``min(n, parked)`` waiters in FIFO park order, counts as a
*single* notification event (``notifies`` += 1, ``notified_threads`` +=
actually woken), ``n == 0`` is a complete no-op (no metrics) and ``n < 0``
raises ``ValueError``.  The simulation and asyncio backends are
deterministic, so FIFO order is asserted exactly there; real threads only
get the count-level assertions (the OS may resume notified threads in any
order).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime import AsyncioBackend, SimulationBackend, ThreadingBackend


def _sim_partial_wakeup(n_waiters, notify_count, seed=0):
    """Park waiters in spawn order, notify_n once, time the rest out."""
    backend = SimulationBackend(seed=seed)
    lock = backend.create_lock()
    condition = backend.create_condition(lock)
    parked = []
    outcomes = []

    def waiter(index):
        def body():
            lock.acquire()
            parked.append(index)
            outcomes.append((index, condition.wait(timeout=200)))
            lock.release()

        return body

    def notifier():
        # Under the FIFO scheduler every earlier-spawned waiter has parked
        # by the time this last-spawned thread first runs.
        lock.acquire()
        condition.notify_n(notify_count)
        lock.release()

    backend.run([waiter(index) for index in range(n_waiters)] + [notifier])
    return backend, parked, outcomes


class TestSimulationNotifyN:
    def test_partial_wakeup_is_fifo(self):
        backend, parked, outcomes = _sim_partial_wakeup(5, 2)
        notified = [index for index, ok in outcomes if ok]
        timed_out = [index for index, ok in outcomes if not ok]
        assert sorted(notified) == parked[:2]
        assert sorted(timed_out) == parked[2:]

    def test_single_notification_event_per_batch(self):
        backend, _, _ = _sim_partial_wakeup(5, 3)
        metrics = backend.metrics.snapshot()
        assert metrics["notifies"] == 1
        assert metrics["notified_threads"] == 3
        assert metrics["notify_alls"] == 0

    def test_overcount_wakes_everyone_once(self):
        backend, parked, outcomes = _sim_partial_wakeup(3, 50)
        assert [ok for _, ok in outcomes] == [True, True, True]
        assert backend.metrics.snapshot()["notified_threads"] == 3

    def test_zero_is_a_complete_no_op(self):
        backend = SimulationBackend(seed=0)
        lock = backend.create_lock()
        condition = backend.create_condition(lock)

        def body():
            lock.acquire()
            condition.notify_n(0)
            lock.release()

        backend.run([body])
        assert backend.metrics.snapshot()["notifies"] == 0

    def test_negative_raises(self):
        backend = SimulationBackend(seed=0)
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        with pytest.raises(ValueError):
            condition.notify_n(-1)


class TestThreadingNotifyN:
    def test_partial_wakeup_counts(self):
        backend = ThreadingBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        outcomes = []

        def waiter():
            lock.acquire()
            outcomes.append(condition.wait(timeout=2.0))
            lock.release()

        def notifier():
            while True:
                lock.acquire()
                if condition.waiter_count() == 4:
                    break
                lock.release()
            condition.notify_n(2)
            lock.release()

        backend.run([waiter] * 4 + [notifier])
        assert sorted(outcomes) == [False, False, True, True]
        metrics = backend.metrics.snapshot()
        assert metrics["notifies"] == 1
        assert metrics["notified_threads"] == 2

    def test_zero_waiters_counts_nothing_woken(self):
        backend = ThreadingBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        with lock:
            condition.notify_n(3)
        metrics = backend.metrics.snapshot()
        assert metrics["notifies"] == 1
        assert metrics["notified_threads"] == 0

    def test_zero_is_a_complete_no_op(self):
        backend = ThreadingBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        with lock:
            condition.notify_n(0)
        assert backend.metrics.snapshot()["notifies"] == 0

    def test_negative_raises(self):
        backend = ThreadingBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        with pytest.raises(ValueError):
            condition.notify_n(-2)


class TestAsyncioNotifyN:
    def _run_partial(self, n_waiters, notify_count):
        backend = AsyncioBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        parked = []
        outcomes = []

        def waiter(index):
            async def body():
                await lock.acquire_async()
                parked.append(index)
                outcomes.append((index, await condition.wait_async(timeout=2.0)))
                lock.release()

            return body

        async def notifier():
            while condition.waiter_count() < n_waiters:
                await asyncio.sleep(0)
            await lock.acquire_async()
            condition.notify_n(notify_count)
            lock.release()

        backend.run([waiter(index) for index in range(n_waiters)] + [notifier])
        return backend, parked, outcomes

    def test_partial_wakeup_is_fifo(self):
        backend, parked, outcomes = self._run_partial(5, 2)
        notified = [index for index, ok in outcomes if ok]
        timed_out = [index for index, ok in outcomes if not ok]
        assert sorted(notified) == parked[:2]
        assert sorted(timed_out) == parked[2:]

    def test_single_notification_event_per_batch(self):
        backend, _, _ = self._run_partial(5, 3)
        metrics = backend.metrics.snapshot()
        assert metrics["notifies"] == 1
        assert metrics["notified_threads"] == 3

    def test_overcount_wakes_everyone_once(self):
        backend, _, outcomes = self._run_partial(3, 99)
        assert [ok for _, ok in outcomes] == [True, True, True]
        assert backend.metrics.snapshot()["notified_threads"] == 3

    def test_zero_is_a_complete_no_op(self):
        backend = AsyncioBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)

        def body():
            lock.acquire()
            condition.notify_n(0)
            lock.release()

        backend.run([body])
        assert backend.metrics.snapshot()["notifies"] == 0

    def test_negative_raises(self):
        backend = AsyncioBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        with pytest.raises(ValueError):
            condition.notify_n(-1)


class TestDefaultLoopImplementation:
    """A ConditionAPI subclass that only implements notify() still gets a
    correct (if unbatched) notify_n through the base-class loop."""

    def test_loops_notify(self):
        calls = []

        from repro.runtime.api import ConditionAPI

        class Plain(ConditionAPI):
            def wait(self, timeout=None):  # pragma: no cover - never parked
                raise AssertionError

            def notify(self):
                calls.append("notify")

            def notify_all(self):  # pragma: no cover
                raise AssertionError

            def waiter_count(self):
                return 0

        condition = Plain()
        condition.notify_n(3)
        assert calls == ["notify"] * 3
        condition.notify_n(0)
        assert calls == ["notify"] * 3
        with pytest.raises(ValueError):
            condition.notify_n(-5)
