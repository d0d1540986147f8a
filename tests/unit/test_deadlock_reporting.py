"""Deadlock diagnostics: thread names and block reasons must survive the
trip from the kernel's ``_handle_no_runnable`` through
``run_workload`` to the caller."""

from __future__ import annotations

import pytest

from repro.core.monitor import ExplicitMonitor
from repro.harness.saturation import run_workload
from repro.problems.base import Problem, WorkloadSpec
from repro.runtime.simulation import DeadlockError, SimulationBackend


class LockCycleProblem(Problem):
    """Two threads acquiring two labelled locks in opposite order."""

    name = "lock_cycle_test"
    description = "deliberate lock-order deadlock (test only)"
    mechanisms = ("explicit",)

    def build(
        self,
        mechanism,
        backend,
        threads,
        total_ops,
        seed=0,
        validate=False,
        **params,
    ) -> WorkloadSpec:
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

        return WorkloadSpec(
            monitor=ExplicitMonitor(backend=backend),
            targets=[forward, backward],
            names=["grab-forward", "grab-backward"],
            operations=2,
        )


class LoneWaiterProblem(Problem):
    """One thread waiting on a condition nobody will ever signal."""

    name = "lone_waiter_test"
    description = "unsignalled condition wait (test only)"
    mechanisms = ("explicit",)

    def build(
        self,
        mechanism,
        backend,
        threads,
        total_ops,
        seed=0,
        validate=False,
        **params,
    ) -> WorkloadSpec:
        monitor = ExplicitMonitor(backend=backend)
        lock = backend.create_lock(label="waiter-lock")
        condition = backend.create_condition(lock)
        condition.label = "never-signalled"

        def waiter():
            lock.acquire()
            condition.wait()
            lock.release()

        return WorkloadSpec(
            monitor=monitor,
            targets=[waiter],
            names=["patient-waiter"],
            operations=1,
        )


class TestDeadlockThroughRunWorkload:
    def test_lock_cycle_reports_names_and_reasons(self):
        backend = SimulationBackend(seed=0)
        with pytest.raises(DeadlockError) as excinfo:
            run_workload(
                LockCycleProblem(), "explicit", backend, threads=2, total_ops=2
            )
        message = str(excinfo.value)
        # Both thread names, both block reasons (with lock labels), and the
        # blocked-thread count must all be intact in the surfaced error.
        assert "grab-forward" in message
        assert "grab-backward" in message
        assert "waiting for lock second" in message
        assert "waiting for lock first" in message
        assert "all 2 live simulated threads are blocked" in message

    def test_condition_wait_reason_is_reported(self):
        backend = SimulationBackend(seed=0)
        with pytest.raises(DeadlockError) as excinfo:
            run_workload(
                LoneWaiterProblem(), "explicit", backend, threads=1, total_ops=1
            )
        message = str(excinfo.value)
        assert "patient-waiter" in message
        assert "waiting on condition never-signalled" in message

    def test_names_and_reasons_pair_up(self):
        # The per-thread detail must associate each name with *its own*
        # reason, in tid order: forward blocks on "second", backward on
        # "first".
        backend = SimulationBackend(seed=0)
        with pytest.raises(DeadlockError) as excinfo:
            run_workload(
                LockCycleProblem(), "explicit", backend, threads=2, total_ops=2
            )
        message = str(excinfo.value)
        assert "grab-forward (waiting for lock second)" in message
        assert "grab-backward (waiting for lock first)" in message
