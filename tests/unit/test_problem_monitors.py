"""Unit tests for the problem monitors' sequential behaviour and validation.

These exercise each monitor class directly (single thread, no blocking), so
failures point at the problem logic rather than at the signalling machinery.
"""

from __future__ import annotations

import pytest

from repro.problems import (
    PROBLEMS,
    AutoBarberShop,
    AutoBoundedBuffer,
    AutoDiningTable,
    AutoParameterizedBoundedBuffer,
    AutoReadersWriters,
    AutoRoundRobin,
    AutoWaterFactory,
    ExplicitBoundedBuffer,
    ExplicitDiningTable,
    ExplicitParameterizedBoundedBuffer,
    ExplicitRoundRobin,
    get_problem,
)
from repro.runtime import SimulationBackend


class TestRegistry:
    def test_all_seven_problems_registered(self):
        assert set(PROBLEMS) >= {
            "bounded_buffer",
            "sleeping_barber",
            "h2o",
            "round_robin",
            "readers_writers",
            "dining_philosophers",
            "parameterized_bounded_buffer",
        }

    def test_builtin_scenarios_are_registered_problems(self):
        assert set(PROBLEMS) >= {
            "barrier",
            "fifo_semaphore",
            "resource_pool",
            "traffic_intersection",
        }

    def test_get_problem_error_lists_registered_problems(self):
        # Same UX as the policy/executor/scheduler registries: unknown names
        # raise a ValueError that lists what *is* registered.
        with pytest.raises(ValueError) as excinfo:
            get_problem("towers_of_hanoi")
        message = str(excinfo.value)
        assert "towers_of_hanoi" in message
        assert "bounded_buffer" in message and "registered problems" in message

    def test_problem_metadata(self):
        assert get_problem("round_robin").uses_complex_predicates
        assert not get_problem("bounded_buffer").uses_complex_predicates
        for problem in PROBLEMS.values():
            assert problem.description

    def test_build_rejects_unknown_mechanism(self):
        backend = SimulationBackend()
        with pytest.raises(ValueError):
            get_problem("bounded_buffer").build("psychic", backend, threads=2, total_ops=10)


class TestBoundedBuffer:
    def test_fifo_order(self):
        buffer = AutoBoundedBuffer(capacity=4)
        for value in range(3):
            buffer.put(value)
        assert [buffer.take() for _ in range(3)] == [0, 1, 2]

    def test_counts_are_tracked(self):
        buffer = AutoBoundedBuffer(capacity=4)
        buffer.put("x")
        assert buffer.count == 1 and buffer.total_put == 1
        buffer.take()
        assert buffer.count == 0 and buffer.total_taken == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            AutoBoundedBuffer(capacity=0)
        with pytest.raises(ValueError):
            ExplicitBoundedBuffer(capacity=-1)

    def test_explicit_version_matches(self):
        buffer = ExplicitBoundedBuffer(capacity=2)
        buffer.put(1)
        buffer.put(2)
        assert buffer.take() == 1
        assert buffer.take() == 2


class TestParameterizedBoundedBuffer:
    def test_batched_put_and_take(self):
        buffer = AutoParameterizedBoundedBuffer(capacity=16)
        buffer.put(list(range(5)))
        assert buffer.take(3) == [0, 1, 2]
        assert buffer.count == 2

    def test_oversized_requests_rejected(self):
        buffer = AutoParameterizedBoundedBuffer(capacity=4)
        with pytest.raises(ValueError):
            buffer.put(list(range(5)))
        with pytest.raises(ValueError):
            buffer.take(5)

    def test_explicit_oversized_requests_rejected(self):
        buffer = ExplicitParameterizedBoundedBuffer(capacity=4)
        with pytest.raises(ValueError):
            buffer.put(list(range(5)))
        with pytest.raises(ValueError):
            buffer.take(5)


class TestRoundRobin:
    def test_turn_advances_modulo_thread_count(self):
        monitor = AutoRoundRobin(3)
        for expected_turn, thread_id in zip((1, 2, 0), (0, 1, 2)):
            monitor.access(thread_id)
            assert monitor.turn == expected_turn
        assert monitor.order_violations == 0

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            AutoRoundRobin(0)
        with pytest.raises(ValueError):
            ExplicitRoundRobin(0)


class TestReadersWriters:
    def test_readers_may_overlap(self):
        monitor = AutoReadersWriters()
        monitor.start_read()
        monitor.start_read()
        assert monitor.active_readers == 2
        monitor.end_read()
        monitor.end_read()
        assert monitor.reads_done == 2
        assert monitor.violations == 0

    def test_writer_is_exclusive_when_alone(self):
        monitor = AutoReadersWriters()
        monitor.start_write()
        assert monitor.active_writers == 1
        monitor.end_write()
        assert monitor.writes_done == 1
        assert monitor.serving == 1


class TestDiningPhilosophers:
    def test_pick_up_and_put_down(self):
        table = AutoDiningTable(4)
        table.pick_up(1)
        assert table.chopsticks == [1, 0, 0, 1]
        table.put_down(1)
        assert table.chopsticks == [1, 1, 1, 1]
        assert table.meals == 1
        assert table.violations == 0

    def test_invalid_table_size(self):
        with pytest.raises(ValueError):
            AutoDiningTable(1)
        with pytest.raises(ValueError):
            ExplicitDiningTable(1)

    def test_neighbours_wrap_around(self):
        table = AutoDiningTable(3)
        table.pick_up(2)  # uses chopsticks 2 and 0
        assert table.chopsticks == [0, 1, 0]
        table.put_down(2)


class TestBarberShop:
    def test_single_customer_flow(self):
        shop = AutoBarberShop(chairs=2, num_customers=1, backend=SimulationBackend())
        # Sequential check of the explicit version instead (the automatic one
        # needs a barber thread); the state machine is identical.
        from repro.problems.sleeping_barber import ExplicitBarberShop

        explicit = ExplicitBarberShop(chairs=2, num_customers=1)
        assert explicit.waiting == 0
        assert not explicit.chair_occupied

    def test_invalid_chair_count(self):
        with pytest.raises(ValueError):
            AutoBarberShop(chairs=0)


class TestWaterFactory:
    def test_two_hydrogens_then_oxygen(self):
        backend = SimulationBackend(seed=1)
        factory = AutoWaterFactory(backend=backend)
        finished = []

        def hydrogen():
            finished.append(factory.hydrogen_ready())

        def oxygen():
            factory.oxygen_ready()
            factory.shutdown()

        backend.run([hydrogen, hydrogen, oxygen])
        assert factory.molecules == 1
        assert factory.hydrogen_bonded == 2
        assert finished == [True, True]

    def test_shutdown_releases_waiting_hydrogen(self):
        backend = SimulationBackend(seed=1)
        factory = AutoWaterFactory(backend=backend)
        outcomes = []

        def hydrogen():
            outcomes.append(factory.hydrogen_ready())

        def shutdown():
            factory.shutdown()

        backend.run([hydrogen, shutdown])
        assert outcomes == [False]
        assert factory.hydrogen_waiting == 0
