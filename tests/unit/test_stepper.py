"""The kernel's stepper: every simulated thread a coroutine on one OS thread.

Every run is stepped on the caller's OS thread, so it starts no thread at
all; the robustness machinery — abort unwinding, fault injection, timed
waits, verdict messages, the hang net — must work there exactly as it did
when plain bodies ran on OS threads of their own (the kernel's former thread
adapter, whose counters and messages ``tests/data/adapter_reference.json``
pins).
"""

from __future__ import annotations

import inspect
import json
import threading
from pathlib import Path

import pytest

from repro.core import AutoSynchMonitor
from repro.core.errors import WaitTimeout
from repro.explore import ExploreTask
from repro.explore.engine import run_prefix
from repro.faults import FaultInjector, create_fault
from repro.harness.saturation import run_workload
from repro.preprocessor.twins import coroutine_twin, monitor_twins
from repro.problems import get_problem
from repro.runtime import SimulationBackend
from repro.runtime.simulation import (
    DeadlockError,
    MonitorAbandonedError,
    PrefixScheduler,
    SimulationError,
    SimulationHangError,
)

REFERENCE = json.loads(
    (Path(__file__).parents[1] / "data" / "adapter_reference.json").read_text()
)


class TestNoOsThreads:
    def test_explore_run_starts_no_thread(self):
        before = threading.active_count()
        counts = []

        class Probe:
            def observe(self, point):
                counts.append(threading.active_count())

        task = ExploreTask("bounded_buffer", "autosynch", threads=3, total_ops=9, seed=1)
        outcome = run_prefix(task, (1, 2, 1), instrument=lambda backend, spec: Probe())
        assert outcome.status == "ok"
        assert counts and set(counts) == {before}

    @pytest.mark.parametrize("mechanism", ["explicit", "autosynch"])
    def test_saturation_run_starts_no_thread(self, mechanism):
        before = threading.active_count()
        counts = []
        backend = SimulationBackend(
            seed=1, observer=lambda point: counts.append(threading.active_count())
        )
        result = run_workload(
            get_problem("parameterized_bounded_buffer"), mechanism, backend,
            threads=4, total_ops=60, seed=1,
        )
        assert result.context_switches > 0
        assert counts and set(counts) == {before}

    def test_plain_closures_and_a_mid_run_spawn_start_no_thread(self):
        before = threading.active_count()
        counts = []
        backend = SimulationBackend(
            seed=1, observer=lambda point: counts.append(threading.active_count())
        )
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        log = []

        def child():
            lock.acquire()
            log.append("child")
            condition.notify()
            lock.release()

        def parent():
            lock.acquire()
            backend.spawn(child, name="child")
            condition.wait()
            log.append("parent")
            lock.release()

        def bystander():
            backend.yield_control()
            log.append("bystander")

        backend.run([parent, bystander], ["parent", "bystander"])
        assert sorted(log) == ["bystander", "child", "parent"]
        assert log.index("child") < log.index("parent")
        assert backend.metrics.threads_spawned == 3
        assert counts and set(counts) == {before}


class _StopAt(Exception):
    pass


def _aborted_bounded_buffer(prefix):
    backend = SimulationBackend(seed=1, policy=PrefixScheduler(prefix))
    spec = get_problem("bounded_buffer").build(
        "autosynch", backend, threads=3, total_ops=9, seed=1
    )

    def observer(point):
        if point.step == len(prefix) - 1:
            raise _StopAt()

    backend.set_observer(observer)
    with pytest.raises(_StopAt):
        backend.run(spec.targets, spec.names)
    return backend, spec


class TestAbortUnwinding:
    @pytest.mark.parametrize(
        "prefix", [(3, 4, 2, 3, 2, 0, 1, 1, 0, 0), (3, 4, 1, 2, 2, 1, 0)]
    )
    def test_every_thread_unwinds_with_the_adapters_counters(self, prefix):
        backend, spec = _aborted_bounded_buffer(prefix)
        assert {t.state.value for t in backend._threads.values()} == {"finished"}
        assert backend.blocked_threads() == ()
        metrics, stats = REFERENCE["aborted"][",".join(map(str, prefix))]
        assert backend.metrics.snapshot() == dict(zip(REFERENCE["metrics_keys"], metrics))
        assert spec.monitor.stats.snapshot() == dict(zip(REFERENCE["stats_keys"], stats))

    def test_an_aborted_backend_runs_again(self):
        backend, _ = _aborted_bounded_buffer((3, 4, 1, 2, 2, 1, 0))
        backend.recycle(seed=1, policy="fifo")
        spec = get_problem("bounded_buffer").build(
            "autosynch", backend, threads=3, total_ops=9, seed=1
        )
        backend.run(spec.targets, spec.names)
        spec.verify()

    def test_adopt_registers_a_build_again(self):
        # A build's locks and conditions, adopted on the recycled backend,
        # come back free and empty; later labels follow theirs.
        def build(backend):
            lock = backend.create_lock(label="monitor")
            return lock, backend.create_condition(lock)

        backend = SimulationBackend(seed=0)
        lock, condition = build(backend)
        built = backend.sync_objects()
        lock.owner = 0
        lock.queue.append(1)
        condition.waiters.append(2)
        backend.create_condition(lock)
        with pytest.raises(SimulationError, match="freshly recycled"):
            backend.adopt(built)
        backend.recycle()
        assert backend.sync_objects() == ((), ())
        backend.adopt(built)
        fresh = SimulationBackend(seed=0)
        build(fresh)
        assert backend.sync_state() == fresh.sync_state()
        assert backend.create_condition(lock).label == "cond-1"


class TestThreadCrash:
    def _run(self, injector_step=0):
        backend = SimulationBackend(seed=0)
        injector = FaultInjector([create_fault("thread_crash", at_step=injector_step)])
        injector.attach(backend)
        lock = backend.create_lock(label="monitor-lock")

        async def victim():
            await lock.acquire_async()
            await backend.yield_async()  # the doom lands here
            lock.release()

        async def waiter():
            await backend.yield_async()
            await lock.acquire_async()
            lock.release()

        return backend, injector, victim, waiter

    def test_dead_owner_is_abandonment(self):
        backend, injector, victim, waiter = self._run()
        with pytest.raises(MonitorAbandonedError, match="victim"):
            backend.run([victim, waiter], ["victim", "waiter"])
        assert injector.fired == 1

    def test_crash_without_contention_just_finishes(self):
        backend, injector, victim, _ = self._run()
        done = []

        async def bystander():
            done.append(True)

        backend.run([victim, bystander])
        assert done == [True] and injector.fired == 1


class TestTimedWaits:
    def test_wait_expires_in_steps(self):
        backend = SimulationBackend(seed=0)
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        results = []

        async def sleeper():
            await lock.acquire_async()
            results.append(await condition.wait_async(timeout=3))
            lock.release()

        backend.run([sleeper])
        assert results == [False]

    def test_notification_beats_the_deadline(self):
        backend = SimulationBackend(seed=0)
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        results = []

        async def sleeper():
            await lock.acquire_async()
            results.append(await condition.wait_async(timeout=50))
            lock.release()

        async def waker():
            await lock.acquire_async()
            condition.notify()
            lock.release()

        backend.run([sleeper, waker])
        assert results == [True]

    def test_wait_until_timeout_raises_through_a_twin(self):
        class Gate(AutoSynchMonitor):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.open = False

            def pass_through(self):
                self.wait_until("open", timeout=5)

        backend = SimulationBackend(seed=0)
        gate = Gate(backend=backend)

        def body():
            gate.pass_through()

        twin = coroutine_twin(body)
        assert twin is not None
        with pytest.raises(WaitTimeout):
            backend.run([twin])


class TestVerdictMessages:
    def test_deadlock_message_matches_the_adapter(self):
        backend = SimulationBackend(seed=0)
        first = backend.create_lock(label="first")
        second = backend.create_lock(label="second")

        def forward():
            first.acquire()
            backend.yield_control()
            second.acquire()

        def backward():
            second.acquire()
            backend.yield_control()
            first.acquire()

        with pytest.raises(DeadlockError) as excinfo:
            backend.run([forward, backward], ["grab-forward", "grab-backward"])
        message = str(excinfo.value)
        assert "grab-forward (waiting for lock second)" in message
        assert message == REFERENCE["deadlock_message"]

    def test_abandonment_message_matches_the_adapter(self):
        backend = SimulationBackend(seed=0)
        FaultInjector([create_fault("thread_crash", at_step=0)]).attach(backend)
        lock = backend.create_lock(label="monitor-lock")

        def victim():
            lock.acquire()
            backend.yield_control()
            lock.release()

        def waiter():
            backend.yield_control()
            lock.acquire()
            lock.release()

        with pytest.raises(MonitorAbandonedError) as excinfo:
            backend.run([victim, waiter], ["victim", "waiter"])
        assert str(excinfo.value) == REFERENCE["abandonment_message"]


class TestHangAutopsy:
    def test_parked_waiter_beside_a_livelock(self):
        backend = SimulationBackend(seed=0, run_timeout=0.3, record_trace=True)
        backend.set_hang_inspector(lambda: "inspector report")
        lock = backend.create_lock()
        condition = backend.create_condition(lock, label="never-signalled")

        def parked():
            lock.acquire()
            condition.wait()
            lock.release()

        def spinner():
            while True:
                backend.yield_control()

        with pytest.raises(SimulationHangError) as excinfo:
            backend.run([parked, spinner], ["parked-thread", "spinner"])
        message = str(excinfo.value)
        assert "parked: parked-thread — waiting on condition never-signalled" in message
        assert "1/2 live thread(s) blocked" in message
        assert "waiters: inspector report" in message
        assert "last 10 schedule decision(s):" in message and "(yield)" in message
        assert {t.state.value for t in backend._threads.values()} == {"finished"}
        backend.recycle()


    def test_coroutines_deciding_forever(self):
        backend = SimulationBackend(seed=0, run_timeout=0.3)

        async def spinner():
            while True:
                await backend.yield_async()

        with pytest.raises(SimulationHangError, match="0/2 live thread"):
            backend.run([spinner, spinner])
        assert {t.state.value for t in backend._threads.values()} == {"finished"}


class TestBlockingFromACoroutine:
    @pytest.mark.parametrize("primitive", ["acquire", "wait", "yield"])
    def test_blocking_primitive_is_refused(self, primitive):
        backend = SimulationBackend(seed=0)
        lock = backend.create_lock()
        condition = backend.create_condition(lock)
        calls = {
            "acquire": lock.acquire,
            "wait": condition.wait,
            "yield": backend.yield_control,
        }

        async def body():
            if primitive == "wait":
                await lock.acquire_async()
            calls[primitive]()

        with pytest.raises(SimulationError, match=f"await the {primitive}_async"):
            backend.run([body])


    def test_awaiting_a_foreign_awaitable_is_refused(self):
        import asyncio

        backend = SimulationBackend(seed=0)
        lock = backend.create_lock()
        released = []

        async def body():
            await lock.acquire_async()
            try:
                await asyncio.sleep(0)
            finally:
                lock.release()
                released.append(True)

        with pytest.raises(SimulationError, match="not a simulation primitive"):
            backend.run([body])
        assert released == [True] and lock.owner is None


class TestTwinGenerator:
    def test_bodies_it_cannot_see_through_are_refused(self):
        backend = SimulationBackend(seed=0)
        locks = [backend.create_lock()]
        lock = locks[0]

        def with_block():
            with lock:
                pass

        def unknown_receiver():
            locks[0].acquire()
            locks[0].release()

        def dynamic_primitive():
            getattr(lock, "acquire")()
            lock.release()

        assert coroutine_twin(with_block) is None
        assert coroutine_twin(unknown_receiver) is None
        assert coroutine_twin(dynamic_primitive) is None
        assert coroutine_twin(lambda: None) is None
        for body, reason in [
            (with_block, "With statement"),
            (unknown_receiver, "call that may block unseen"),
            (dynamic_primitive, "call that may block unseen"),
            (lambda: None, "is not a def statement"),
        ]:
            with pytest.raises(SimulationError, match=f"thread body has no coroutine twin: .*{reason}"):
                backend.run([body], ["body"])
            assert backend.steps == 0

    def test_a_body_that_awaits_nothing_never_suspends(self):
        backend = SimulationBackend(seed=0, record_trace=True)
        locks = [backend.create_lock()]
        counted = []

        def awaits_nothing():
            counted.append(len(locks))

        assert inspect.iscoroutinefunction(coroutine_twin(awaits_nothing))
        backend.run([awaits_nothing, awaits_nothing])
        assert counted == [1, 1]
        # One decision to start each thread, none in between.
        assert [point.reason for point in backend.schedule_trace] == ["start", "exit"]

    def test_fields_and_helpers_are_checked_before_they_run_synchronously(self):
        class Tally(AutoSynchMonitor):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.items = []
                self.sink = []

            def add(self, item):
                self._record(item)

            def flush(self):
                self.sink.append(len(self.items))

            def _record(self, item):
                self.items.append(item)

        # The entries; _record blocks on nothing, so it runs synchronously.
        assert set(monitor_twins(Tally)) == {"add", "flush"}
        backend = SimulationBackend(seed=0)
        tally = Tally(backend=backend)

        def body():
            tally.add(1)
            getattr(tally, "_record")(2)
            getattr(tally, "flush")()

        twin = coroutine_twin(body)
        assert twin is not None
        backend.run([twin])
        assert tally.items == [1, 2] and tally.sink == [2]
        # A field holding a monitor could block: no twin for that instance.
        tally.sink = Tally(backend=backend)
        assert coroutine_twin(body) is None

    def test_entry_calling_an_entry_and_a_blocking_helper(self):
        class Counter(AutoSynchMonitor):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.value = 0

            def bump(self):
                self.value += 1

            def bump_twice_when(self, least):
                self._wait_for(least)
                self.bump()
                self.bump()

            def _wait_for(self, least):
                self.wait_until("value >= least", least=least)

        table = monitor_twins(Counter)
        assert set(table) == {"bump", "bump_twice_when", "_wait_for"}
        backend = SimulationBackend(seed=0)
        counter = Counter(backend=backend)

        def waiter():
            counter.bump_twice_when(1)

        def bumper():
            counter.bump()

        backend.run([coroutine_twin(waiter), coroutine_twin(bumper)])
        assert counter.value == 3
        assert counter.stats.entries == 2

    def test_zero_argument_super_is_not_twinned(self):
        class Base(AutoSynchMonitor):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.value = 0

            def step(self):
                self.value += 1

        class Derived(Base):
            def step(self):
                super().step()

        assert monitor_twins(Derived) is None
        assert monitor_twins(Base) is not None
