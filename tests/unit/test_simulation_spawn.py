"""Unit tests for dynamic thread creation and handles on the simulator."""

from __future__ import annotations

import threading

import pytest

from repro.runtime import SimulationBackend
from repro.runtime.simulation import SimulationError


def idle():
    pass


class TestSpawn:
    def test_spawn_before_run_registers_for_next_run(self):
        backend = SimulationBackend(seed=1)
        log = []

        def spawned():
            log.append("spawned")

        def main():
            log.append("main")

        handle = backend.spawn(spawned, name="pre-registered")
        assert handle.name == "pre-registered"
        assert handle.alive
        backend.run([main])
        assert sorted(log) == ["main", "spawned"]

    def test_spawning_a_body_without_a_twin_is_refused(self):
        backend = SimulationBackend(seed=1)
        with pytest.raises(SimulationError, match="thread pre-registered has no coroutine twin"):
            backend.spawn(lambda: None, name="pre-registered")
        assert backend.metrics.threads_spawned == 0

    def test_spawn_during_run_executes_new_thread(self):
        backend = SimulationBackend(seed=1)
        log = []

        def child():
            log.append("child")

        def parent():
            log.append("parent-before")
            backend.spawn(child, name="child")
            backend.yield_control()
            log.append("parent-after")

        backend.run([parent], ["parent"])
        assert "child" in log
        assert log[0] == "parent-before"

    def test_spawn_from_another_os_thread_mid_run_is_refused(self):
        backend = SimulationBackend(seed=1)
        errors = []

        def probe():
            try:
                backend.spawn(idle, name="intruder")
            except SimulationError as error:
                errors.append(str(error))

        async def parent():
            plain = threading.Thread(target=probe, daemon=True)
            plain.start()
            plain.join(timeout=10)
            assert not plain.is_alive()

        backend.run([parent], ["parent"])
        assert errors == [
            "simulation primitives may only be used from inside a simulated thread"
        ]
        assert backend.metrics.threads_spawned == 1

    def test_handle_reports_completion(self):
        backend = SimulationBackend(seed=1)
        handle = backend.spawn(idle, name="worker")
        backend.run([idle])
        handle.join(timeout=1)
        assert not handle.alive

    def test_spawned_threads_share_monitor_state(self):
        from repro.core import AutoSynchMonitor

        class Counter(AutoSynchMonitor):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.value = 0

            def bump(self):
                self.value += 1

            def wait_for(self, target):
                self.wait_until("value >= target", target=target)

        backend = SimulationBackend(seed=2)
        counter = Counter(backend=backend)

        def bump():
            counter.bump()

        def waiter():
            counter.wait_for(3)
            # Spawn a late worker once the first three bumps have happened.
            backend.spawn(bump, name="late-bump")
            counter.wait_for(4)

        backend.run([waiter] + [bump] * 3, ["waiter", "b0", "b1", "b2"])
        assert counter.value == 4

    def test_default_names_are_generated(self):
        backend = SimulationBackend(seed=0)
        seen = []

        def record():
            seen.append(backend.current_name())

        backend.run([record, record])
        assert len(set(seen)) == 2
        assert all(name.startswith("sim-") for name in seen)

    def test_names_argument_is_respected(self):
        backend = SimulationBackend(seed=0)
        seen = []

        def record():
            seen.append(backend.current_name())

        backend.run([record], ["special-name"])
        assert seen == ["special-name"]


class TestSyncStateOrder:
    """``sync_state`` lists threads in increasing tid order without sorting:
    tids are handed out in increasing order and ``_threads`` keeps
    insertion order.  These pin the cases that could break that."""

    @staticmethod
    def _record_tids(backend):
        snapshots = []
        backend.set_observer(
            lambda point: snapshots.append(
                [tid for tid, _state, _reason in backend.sync_state()[0]]
            )
        )
        return snapshots

    def test_thread_spawned_before_run(self):
        backend = SimulationBackend(seed=1)
        backend.run([idle, idle])
        backend.spawn(idle, name="pre-registered")
        snapshots = self._record_tids(backend)
        backend.run([idle, idle])
        assert snapshots and all(tids == [2, 3, 4] for tids in snapshots)

    def test_thread_spawned_mid_run(self):
        backend = SimulationBackend(seed=1)

        def parent():
            backend.spawn(idle, name="child")
            backend.yield_control()

        snapshots = self._record_tids(backend)
        backend.run([parent, idle], ["parent", "sibling"])
        assert snapshots[0] == [0, 1]
        assert snapshots[-1] == [0, 1, 2]
        assert all(tids == sorted(tids) for tids in snapshots)

    def test_after_recycle(self):
        backend = SimulationBackend(seed=1)
        backend.run([idle, idle, idle])
        backend.recycle()
        snapshots = self._record_tids(backend)
        backend.run([idle, idle])
        assert snapshots and all(tids == [0, 1] for tids in snapshots)
