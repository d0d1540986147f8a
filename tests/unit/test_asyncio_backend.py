"""The asyncio backend and the coroutine monitor driver.

Coroutine waiters go through :mod:`repro.core.async_driver` —
``monitor_entry`` / ``wait_until_async`` / ``run_action`` — which re-drives
the signalling policy's own ``wait_steps`` generator with awaitable
primitives, so relay semantics are shared with the blocking path by
construction.  These tests exercise the asyncio-specific surface: task
waiters, plain bodies hosted as their coroutine twins, failure
propagation, the refusal of blocking primitives and of calls from other OS
threads, and timeouts inside coroutines.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core import AutoSynchMonitor, WaitTimeout
from repro.core.async_driver import monitor_entry, run_action, wait_until_async
from repro.core.errors import MonitorUsageError
from repro.runtime import AsyncioBackend, ThreadingBackend


class Counter(AutoSynchMonitor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.count = 0

    def bump(self):
        self.count += 1

    def wait_for(self, threshold, timeout=None):
        self.wait_until("count >= threshold", threshold=threshold, timeout=timeout)


class TestBackendBasics:
    def test_spawn_requires_run_for_coroutines(self):
        backend = AsyncioBackend()

        async def body():
            return None

        with pytest.raises(RuntimeError):
            backend.spawn(body)

    def test_plain_targets_run_as_twins_on_the_loop(self, monkeypatch):
        backend = AsyncioBackend()
        seen = []
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))

        def body():
            seen.append(backend.current_id())

        backend.run([body, body])
        assert len(seen) == 2
        assert all(isinstance(task, asyncio.Task) for task in seen)
        assert seen[0] is not seen[1]
        assert started == []

    def test_plain_bodies_await_the_primitives_they_see(self):
        """A plain body's twin awaits the lock and condition it can see:
        acquire and wait become acquire_async and wait_async."""
        backend = AsyncioBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        box = []
        woken = []

        def consumer():
            lock.acquire()
            while not box:
                condition.wait()
            woken.append(box.pop())
            lock.release()

        def producer():
            lock.acquire()
            box.append("item")
            condition.notify()
            lock.release()

        backend.run([consumer, producer])
        assert woken == ["item"]
        assert backend.metrics.condition_waits == 1
        assert backend.metrics.notified_threads == 1

    def test_plain_body_without_twin_is_refused_before_any_task_starts(self):
        backend = AsyncioBackend()
        started = []

        def helper():
            return None

        async def ready():
            started.append("ready")

        def unseen():
            started.append("unseen")
            helper()

        with pytest.raises(
            RuntimeError,
            match=r"^thread unseen has no coroutine twin: call that may block "
            r"unseen \(line \d+\): helper; write it as an async def",
        ):
            backend.run([ready, unseen], names=["ready", "unseen"])
        assert started == []
        assert backend.metrics.threads_spawned == 0

    def test_primitives_from_another_os_thread_are_rejected(self):
        """Only the OS thread running ``run`` may use the primitives: the
        main thread outside a run, a plain OS thread started mid-run and a
        task using another backend's lock all get the same RuntimeError."""
        backend = AsyncioBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        expected = "may only be used inside AsyncioBackend.run, from the OS thread running it"
        with pytest.raises(RuntimeError, match=expected):
            lock.release()
        other = AsyncioBackend().create_lock()
        messages = []

        def probe(*calls):
            for call in calls:
                try:
                    call()
                except RuntimeError as error:
                    messages.append(str(error))

        async def worker():
            await lock.acquire_async()
            plain = threading.Thread(
                daemon=True,
                target=probe,
                args=(
                    lock.release,
                    condition.notify_all,
                    backend.current_id,
                    lambda: asyncio.run(lock.acquire_async()),
                ),
            )
            plain.start()
            plain.join(timeout=10)
            assert not plain.is_alive()
            probe(other.release)
            assert lock.locked
            lock.release()

        backend.run([worker])
        assert len(messages) == 5
        assert all(expected in message for message in messages)
        assert backend.metrics.notify_alls == 0

    def test_coroutine_failure_propagates(self):
        backend = AsyncioBackend()

        async def body():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            backend.run([body])

    def test_current_id_distinguishes_tasks(self):
        backend = AsyncioBackend()
        ids = []

        async def body():
            ids.append(backend.current_id())

        backend.run([body, body])
        assert len(ids) == 2
        assert ids[0] is not ids[1]

    def test_blocking_acquire_on_loop_thread_is_rejected(self):
        """A task must never block the loop: the blocking acquire and wait
        raise, even uncontended, and name the form to await instead."""
        backend = AsyncioBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        errors = []

        async def blocker():
            for call in (lock.acquire, condition.wait):
                try:
                    call()
                except RuntimeError as error:
                    errors.append(str(error))

        backend.run([blocker])
        assert errors == [
            f"every thread of an asyncio-backend run is a task on its event loop "
            f"and must await the {name}_async primitive instead of calling the "
            f"blocking {name}()"
            for name in ("acquire", "wait")
        ]
        assert not lock.locked

    def test_wrong_lock_type_rejected(self):
        backend = AsyncioBackend()
        with pytest.raises(TypeError):
            backend.create_condition(threading.Lock())

    def test_run_waits_for_tasks_spawned_mid_run(self):
        """A coroutine thread spawned by a running target is waited for,
        not cancelled when the loop exits."""
        backend = AsyncioBackend()
        finished = []
        handles = []

        async def child():
            await asyncio.sleep(0.05)
            finished.append("child")

        async def parent():
            handles.append(backend.spawn(child, name="child"))
            finished.append("parent")

        backend.run([parent])
        assert finished == ["parent", "child"]
        handles[0].join()
        assert not handles[0].alive
        assert backend.metrics.threads_spawned == 2

    def test_failure_of_a_task_spawned_mid_run_propagates(self):
        backend = AsyncioBackend()

        async def child():
            await asyncio.sleep(0.02)
            raise RuntimeError("child failed")

        async def parent():
            backend.spawn(child)

        with pytest.raises(RuntimeError, match="child failed"):
            backend.run([parent])


#: Run in a child process so that a backend which never notices the
#: deadlock fails on the timeout instead of hanging the suite.
_DEADLOCK_SCRIPT = """
import time
from repro.runtime import AsyncioBackend

backend = AsyncioBackend()
lock = backend.create_lock(label="gate-lock")
condition = backend.create_condition(lock, label="never-notified")

async def stuck():
    await lock.acquire_async()
    await condition.wait_async()

async def blocked():
    await lock.acquire_async()
    await lock.acquire_async()

started = time.monotonic()
for targets, names in (([stuck], ["stuck"]), ([stuck, blocked], ["stuck", "blocked"])):
    try:
        backend.run(targets, names=names)
    except RuntimeError as error:
        print(error)
print(f"elapsed {time.monotonic() - started:.3f}")
"""


class TestDeadlock:
    def test_every_task_parked_without_timeout_fails_the_run_at_once(self):
        """A task that holds a lock and waits on a condition nobody
        notifies used to keep ``run`` waiting forever; now ``run`` cancels
        the tasks and raises a ``deadlock:`` message naming each parked task
        and what it waits on."""
        src = Path(repro.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", _DEADLOCK_SCRIPT],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[:2] == [
            "deadlock: all 1 live tasks are parked with no timeout — "
            "stuck (waiting on condition never-notified)",
            "deadlock: all 2 live tasks are parked with no timeout — "
            "blocked (waiting on lock gate-lock), "
            "stuck (waiting on condition never-notified)",
        ]
        assert float(lines[2].split()[1]) < 5.0

    def test_a_timed_wait_is_not_a_deadlock(self):
        backend = AsyncioBackend()
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        results = []

        async def waiter():
            await lock.acquire_async()
            results.append(await condition.wait_async(0.01))
            lock.release()

        backend.run([waiter])
        assert results == [False]


class TestCoroutineMonitorDriver:
    def test_coroutine_waiters_relay_in_order(self):
        backend = AsyncioBackend()
        monitor = Counter(backend=backend, signalling="autosynch")
        observed = []

        def waiter(threshold):
            async def body():
                async with monitor_entry(monitor, "wait_for"):
                    await wait_until_async(
                        monitor, "count >= threshold", threshold=threshold
                    )
                    observed.append(threshold)

            return body

        async def bumper():
            for _ in range(10):
                async with monitor_entry(monitor, "bump"):
                    monitor.count += 1

        backend.run([waiter(t) for t in range(1, 6)] + [bumper])
        assert sorted(observed) == [1, 2, 3, 4, 5]
        assert monitor.stats.waits >= 1

    def test_twins_and_coroutines_share_one_monitor(self):
        """A plain body's twin and a hand-written coroutine interleave on the
        same monitor: the twin awaits the entry's twin of wait_until, the
        coroutine awaits wait_until_async."""
        backend = AsyncioBackend()
        monitor = Counter(backend=backend, signalling="autosynch")
        woken = []

        def sync_waiter():
            monitor.wait_for(3)
            woken.append("thread")

        async def task_waiter():
            async with monitor_entry(monitor, "wait_for"):
                await wait_until_async(monitor, "count >= 3")
            woken.append("task")

        async def bumper():
            for _ in range(3):
                async with monitor_entry(monitor, "bump"):
                    monitor.count += 1

        backend.run([sync_waiter, task_waiter, bumper])
        assert sorted(woken) == ["task", "thread"]

    def test_wait_timeout_in_coroutine(self):
        backend = AsyncioBackend()
        monitor = Counter(backend=backend, signalling="autosynch")
        outcomes = []

        async def body():
            async with monitor_entry(monitor, "wait_for"):
                try:
                    await wait_until_async(monitor, "count >= 1", timeout=0.2)
                except WaitTimeout:
                    outcomes.append("timeout")

        backend.run([body])
        assert outcomes == ["timeout"]
        assert monitor.stats.wait_timeouts == 1

    def test_notification_beats_timeout_in_coroutine(self):
        backend = AsyncioBackend()
        monitor = Counter(backend=backend, signalling="autosynch")
        outcomes = []

        async def waiter():
            async with monitor_entry(monitor, "wait_for"):
                await wait_until_async(monitor, "count >= 1", timeout=30.0)
                outcomes.append(monitor.count)

        async def bumper():
            async with monitor_entry(monitor, "bump"):
                monitor.count += 1

        backend.run([waiter, bumper])
        assert outcomes == [1]
        assert monitor.stats.wait_timeouts == 0

    def test_monitor_entry_requires_async_primitives(self):
        monitor = Counter(backend=ThreadingBackend())

        async def body():
            async with monitor_entry(monitor):
                pass  # pragma: no cover - never entered

        import asyncio

        with pytest.raises(MonitorUsageError, match="asyncio"):
            asyncio.run(body())


class _Plain(AutoSynchMonitor):
    pass


class TestRunAction:
    def _scenario_monitor(self, backend):
        from repro.harness.service_load import _build_scenario_monitor

        monitor, _ = _build_scenario_monitor("fifo_semaphore", 2, backend, "autosynch")
        return monitor

    def test_run_action_drives_compiled_scenarios(self):
        backend = AsyncioBackend()
        monitor = self._scenario_monitor(backend)

        def worker(index):
            async def body():
                await run_action(monitor, "acquire")
                await run_action(monitor, "release")

            return body

        backend.run([worker(index) for index in range(6)])
        assert monitor.acquired == 6
        assert monitor.released == 6
        assert monitor.available == 2  # permits conserved

    def test_unknown_action_lists_actions(self):
        backend = AsyncioBackend()
        monitor = self._scenario_monitor(backend)

        async def body():
            with pytest.raises(MonitorUsageError, match="acquire"):
                await run_action(monitor, "frobnicate")

        backend.run([body])

    def test_non_scenario_monitor_rejected(self):
        backend = AsyncioBackend()
        monitor = _Plain(backend=backend)

        async def body():
            with pytest.raises(MonitorUsageError, match="scenario"):
                await run_action(monitor, "anything")

        backend.run([body])


class TestCancellation:
    def test_lock_handed_to_a_cancelled_task_is_passed_on(self):
        """``a`` releases the lock to the queued ``b`` and cancels ``b``
        before it resumes: ``b`` must pass the lock on as it unwinds, or
        ``c`` parks forever behind a lock nobody holds."""
        backend = AsyncioBackend()
        lock = backend.create_lock(label="L")
        tasks = {}
        events = []

        async def a():
            await lock.acquire_async()
            await asyncio.sleep(0)  # b queues on the lock
            lock.release()  # handed to b, which has not resumed yet
            tasks["b"].cancel()

        async def b():
            tasks["b"] = asyncio.current_task()
            try:
                await lock.acquire_async()
            except asyncio.CancelledError:
                events.append("b cancelled")
                return
            events.append("b acquired")
            lock.release()

        async def c():
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            await lock.acquire_async()
            events.append("c acquired")
            lock.release()

        backend.run([a, b, c], names=["a", "b", "c"])
        assert events == ["b cancelled", "c acquired"]
        assert not lock.locked

    @pytest.mark.parametrize("cancels", ["outside", "inside", "inside, twice"])
    def test_cancelled_wait_until_leaves_holding_the_lock(self, monkeypatch, cancels):
        """A task cancelled while parked in ``wait_until`` takes the
        monitor lock back before it unwinds, also when the canceller is
        inside the monitor and cancels it again while it queues for the
        lock, so ``run_action``'s exit relay and release run by the lock's
        holder: the next waiter is still admitted, and no task releases a
        lock it does not hold."""
        from repro.runtime.asyncio_backend import _AsyncioLock

        holders = {}
        foreign_releases = []
        acquire, release = _AsyncioLock.acquire_async, _AsyncioLock.release

        async def tracked_acquire(self):
            await acquire(self)
            holders[self] = asyncio.current_task()

        def tracked_release(self):
            holder = holders.pop(self, None)
            if holder is not asyncio.current_task():
                foreign_releases.append(asyncio.current_task().get_name())
            release(self)

        monkeypatch.setattr(_AsyncioLock, "acquire_async", tracked_acquire)
        monkeypatch.setattr(_AsyncioLock, "release", tracked_release)

        from repro.harness.service_load import _build_scenario_monitor

        backend = AsyncioBackend()
        monitor, _ = _build_scenario_monitor("fifo_semaphore", 1, backend, "autosynch")
        tasks = {}
        admitted = []

        def acquirer(name):
            async def body():
                tasks[name] = asyncio.current_task()
                try:
                    await run_action(monitor, "acquire")
                except asyncio.CancelledError:
                    admitted.append(f"{name} cancelled")
                    return
                admitted.append(name)

            return body

        async def settle():
            for _ in range(5):
                await asyncio.sleep(0)

        async def controller():
            await settle()  # h admitted with the only permit; w1, w2 parked
            if cancels != "outside":
                async with monitor_entry(monitor, "cancel"):
                    tasks["w2"].cancel()
                    await settle()
                    if cancels == "inside, twice":
                        tasks["w2"].cancel()
                        await settle()
            else:
                tasks["w2"].cancel()
            await settle()
            await run_action(monitor, "release")

        backend.run(
            [acquirer("h"), acquirer("w1"), acquirer("w2"), controller],
            names=["h", "w1", "w2", "controller"],
        )
        assert admitted == ["h", "w2 cancelled", "w1"]
        assert foreign_releases == []
        assert not monitor._mutex.locked
        assert monitor.acquired == 2 and monitor.available == 0
        assert monitor.condition_manager._active_count == 0
