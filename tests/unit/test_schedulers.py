"""Unit tests for the pluggable scheduler registry and schedule traces."""

from __future__ import annotations

import pytest

from repro.runtime.simulation import (
    FifoScheduler,
    PrefixScheduler,
    RandomScheduler,
    ReplayScheduler,
    SchedulePoint,
    ScheduleDivergenceError,
    ScheduleTrace,
    Scheduler,
    SimulationBackend,
    available_schedulers,
    create_scheduler,
    describe_scheduler,
    get_scheduler,
    register_scheduler,
    unregister_scheduler,
)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = available_schedulers()
        assert "fifo" in names and "random" in names
        assert "prefix" in names and "replay" in names

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            get_scheduler("priority")
        message = str(excinfo.value)
        assert "priority" in message
        for name in available_schedulers():
            assert name in message

    def test_kernel_constructor_validates_through_registry(self):
        # The kernel's error must have the same UX as --list-schedulers:
        # name the offender and enumerate what is actually registered.
        with pytest.raises(ValueError) as excinfo:
            SimulationBackend(policy="priority")
        message = str(excinfo.value)
        assert "priority" in message
        assert "fifo" in message and "random" in message

    def test_kernel_accepts_instances_and_classes(self):
        assert SimulationBackend(policy=FifoScheduler).policy == "fifo"
        assert SimulationBackend(policy=RandomScheduler(seed=3)).policy == "random"
        assert SimulationBackend(policy=PrefixScheduler((1, 0))).policy == "prefix"

    def test_register_and_unregister_custom_scheduler(self):
        class LastScheduler(Scheduler):
            name = "last_test"
            description = "always runs the last runnable thread"

            def choose(self, runnable):
                return len(runnable) - 1

        register_scheduler(LastScheduler)
        try:
            assert "last_test" in available_schedulers()
            backend = SimulationBackend(policy="last_test")
            assert backend.policy == "last_test"
        finally:
            unregister_scheduler("last_test")
        assert "last_test" not in available_schedulers()
        with pytest.raises(ValueError):
            unregister_scheduler("last_test")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            class Clash(Scheduler):
                name = "fifo"

                def choose(self, runnable):  # pragma: no cover
                    return 0

            register_scheduler(Clash)

    def test_describe(self):
        assert "round-robin" in describe_scheduler("fifo")
        # Constructing "replay" needs a trace; describe falls back to the
        # class description instead of failing.
        assert describe_scheduler("replay")

    def test_create_scheduler_rejects_garbage(self):
        with pytest.raises(TypeError):
            create_scheduler(42)

    def test_replay_by_name_needs_a_trace(self):
        with pytest.raises(ValueError, match="ScheduleTrace"):
            create_scheduler("replay")


def _idle():
    pass


def _two_yielders(backend):
    """A tiny workload with real scheduling decisions."""

    def worker():
        for _ in range(3):
            backend.yield_control()

    return [worker, worker], ["alpha", "beta"]


class TestTraceRecording:
    def test_no_trace_by_default(self, sim_backend):
        targets, names = _two_yielders(sim_backend)
        sim_backend.run(targets, names)
        assert sim_backend.schedule_trace is None

    def test_trace_records_every_decision(self):
        backend = SimulationBackend(record_trace=True)
        targets, names = _two_yielders(backend)
        backend.run(targets, names)
        trace = backend.schedule_trace
        assert len(trace) > 0
        for point in trace:
            assert point.runnable == tuple(sorted(point.runnable))
            assert point.chosen in point.runnable
            assert point.reason
        # The first decision starts the run; every chosen index is valid.
        assert trace[0].reason == "start"
        assert all(0 <= c < p.branching for c, p in zip(trace.choices(), trace))

    def test_trace_resets_between_runs(self):
        backend = SimulationBackend(record_trace=True)
        backend.run([_idle], ["only"])
        first = backend.schedule_trace
        assert len(first) == 1
        backend.run([_idle, _idle])
        second = backend.schedule_trace
        assert second is not first
        assert len(second) == 2

    def test_trace_json_roundtrip(self):
        backend = SimulationBackend(seed=5, policy="random", record_trace=True)
        targets, names = _two_yielders(backend)
        backend.run(targets, names)
        trace = backend.schedule_trace
        restored = ScheduleTrace.from_json(trace.to_json())
        assert restored == trace
        assert restored.digest() == trace.digest()

    def test_digest_distinguishes_schedules(self):
        def run_with(prefix):
            backend = SimulationBackend(
                policy=PrefixScheduler(prefix), record_trace=True
            )
            targets, names = _two_yielders(backend)
            backend.run(targets, names)
            return backend.schedule_trace

        assert run_with((0,)).digest() != run_with((1,)).digest()


class TestPrefixScheduler:
    def test_prefix_forces_the_other_thread_first(self):
        order = []

        def make(tag):
            def worker():
                order.append(tag)

            return worker

        backend = SimulationBackend(policy=PrefixScheduler((1,)))
        backend.run([make("a"), make("b")], ["a", "b"])
        assert order[0] == "b"

    def test_default_continuation_is_smallest_tid(self):
        order = []

        def make(tag):
            def worker():
                order.append(tag)

            return worker

        backend = SimulationBackend(policy=PrefixScheduler(()))
        backend.run([make("a"), make("b"), make("c")])
        assert order == ["a", "b", "c"]

    def test_out_of_range_prefix_diverges(self):
        backend = SimulationBackend(policy=PrefixScheduler((7,)))
        with pytest.raises(ScheduleDivergenceError):
            backend.run([_idle, _idle])


class TestReplayScheduler:
    def _record(self, seed):
        backend = SimulationBackend(seed=seed, policy="random", record_trace=True)
        targets, names = _two_yielders(backend)
        backend.run(targets, names)
        return backend.schedule_trace, backend.metrics.snapshot()

    def test_replay_reproduces_trace_and_metrics(self):
        trace, metrics = self._record(seed=17)
        replay = SimulationBackend(
            policy=ReplayScheduler(trace), record_trace=True
        )
        targets, names = _two_yielders(replay)
        replay.run(targets, names)
        assert replay.schedule_trace == trace
        assert replay.schedule_trace.digest() == trace.digest()
        assert replay.metrics.snapshot() == metrics

    def test_replay_against_different_program_diverges(self):
        trace, _ = self._record(seed=17)
        replay = SimulationBackend(policy=ReplayScheduler(trace))
        # Three threads instead of two: the runnable sets cannot match.
        with pytest.raises(ScheduleDivergenceError):
            replay.run([_idle, _idle, _idle])

    def test_replay_past_end_of_trace_diverges(self):
        trace, _ = self._record(seed=17)
        short = ScheduleTrace(list(trace)[:1])
        replay = SimulationBackend(policy=ReplayScheduler(short))
        targets, names = _two_yielders(replay)
        with pytest.raises(ScheduleDivergenceError):
            replay.run(targets, names)

    def test_constructor_requires_trace(self):
        with pytest.raises(ValueError):
            ReplayScheduler()


class TestSchedulePoint:
    def test_roundtrip_and_choice_index(self):
        point = SchedulePoint(step=3, runnable=(1, 4, 6), chosen=4, reason="yield")
        assert point.choice_index == 1
        assert point.branching == 3
        assert SchedulePoint.from_dict(point.to_dict()) == point


class TestLockLabels:
    def test_label_appears_in_block_reason_and_deadlock(self):
        backend = SimulationBackend()
        first = backend.create_lock(label="alpha-lock")
        second = backend.create_lock(label="beta-lock")

        def one():
            first.acquire()
            backend.yield_control()
            second.acquire()

        def two():
            second.acquire()
            backend.yield_control()
            first.acquire()

        from repro.runtime.simulation import DeadlockError

        with pytest.raises(DeadlockError) as excinfo:
            backend.run([one, two], ["t-one", "t-two"])
        message = str(excinfo.value)
        assert "waiting for lock beta-lock" in message
        assert "waiting for lock alpha-lock" in message
