"""Unit tests for the monitor base classes (entry wrapping, wait_until, modes)."""

from __future__ import annotations

import pytest

from repro.core import (
    AUTOMATIC_MODES,
    AutoSynchMonitor,
    ExplicitMonitor,
    MonitorUsageError,
    query_method,
)
from repro.preprocessor import autosynch, waituntil
from repro.problems import available_problems, get_problem
from repro.runtime import SimulationBackend, ThreadingBackend
from repro.scenarios import ScenarioProblem


class Cell(AutoSynchMonitor):
    """Single-slot buffer used throughout these tests."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.value = None
        self.generation = 0

    def put(self, value):
        self.wait_until("value is None")
        self.value = value
        self.generation += 1

    def take(self):
        self.wait_until("value is not None")
        value = self.value
        self.value = None
        return value

    def put_twice(self, first, second):
        # Nested entry-method call: must not deadlock on the monitor lock.
        self.put(first)
        taken = self.take()
        self.put(second)
        return taken

    @query_method
    def is_empty(self):
        return self.value is None

    def wait_for_generation(self, wanted):
        self.wait_until("generation >= wanted", wanted=wanted)
        return self.generation


class TestEntryMethods:
    def test_entry_methods_work_single_threaded(self):
        cell = Cell()
        cell.put(41)
        assert cell.take() == 41

    def test_entries_are_counted(self):
        cell = Cell()
        cell.put(1)
        cell.take()
        assert cell.stats.entries == 2

    def test_nested_entry_calls_do_not_deadlock(self):
        cell = Cell()
        assert cell.put_twice("a", "b") == "a"
        assert cell.take() == "b"

    def test_query_methods_are_not_wrapped(self):
        cell = Cell()
        # A query method called from outside does not count as an entry.
        entries_before = cell.stats.entries
        assert cell.is_empty() is True
        assert cell.stats.entries == entries_before

    def test_missing_super_init_gives_helpful_error(self):
        class Broken(AutoSynchMonitor):
            def __init__(self):
                self.value = 1  # forgot super().__init__()

            def poke(self):
                return self.value

        broken = Broken()
        with pytest.raises(MonitorUsageError) as excinfo:
            broken.poke()
        assert "super().__init__" in str(excinfo.value)

    def test_stats_and_backend_properties(self):
        backend = ThreadingBackend()
        cell = Cell(backend=backend)
        assert cell.backend is backend
        assert cell.stats.entries == 0

    def test_profile_is_not_a_monitor_option(self):
        # Monitors measure with event counters only; there is no timing mode.
        with pytest.raises(TypeError):
            Cell(profile=True)
        with pytest.raises(TypeError):
            ExplicitCell(profile=True)


class TestWaitUntil:
    def test_fast_path_does_not_register_predicates(self):
        cell = Cell()
        cell.put(1)
        assert cell.stats.predicate_registrations == 0
        assert cell.stats.waits == 0

    def test_wait_until_outside_entry_method_raises(self):
        cell = Cell()
        with pytest.raises(MonitorUsageError):
            cell.wait_until("value is None")

    def test_unknown_name_in_predicate_raises(self):
        class Bad(AutoSynchMonitor):
            def __init__(self):
                super().__init__()
                self.x = 1

            def go(self):
                self.wait_until("no_such_field > 0")

        from repro.predicates import ClassificationError

        with pytest.raises(ClassificationError):
            Bad().go()

    def test_invalid_predicate_source_raises(self):
        from repro.predicates import PredicateParseError

        class Bad(AutoSynchMonitor):
            def __init__(self):
                super().__init__()

            def go(self):
                self.wait_until("x >")

        with pytest.raises(PredicateParseError):
            Bad().go()

    def test_complex_predicate_uses_local_kwargs(self):
        cell = Cell()
        cell.put(1)
        assert cell.wait_for_generation(1) == 1

    def test_predicates_are_compiled_once_per_source(self):
        cell = Cell()
        cell.put(1)
        cell.take()
        cell.put(2)
        cell.take()
        assert len(cell._predicate_cache) == 2

    def test_invalid_signalling_mode_rejected(self):
        with pytest.raises(ValueError):
            Cell(signalling="telepathy")

    @pytest.mark.parametrize("mode", AUTOMATIC_MODES)
    def test_all_modes_construct(self, mode):
        cell = Cell(signalling=mode)
        assert cell.signalling == mode
        cell.put(1)
        assert cell.take() == 1

    def test_condition_manager_exposed_for_relay_modes(self):
        assert Cell(signalling="autosynch").condition_manager is not None
        assert Cell(signalling="autosynch_t").condition_manager is not None
        assert Cell(signalling="baseline").condition_manager is None


class TestBlockingBehaviour:
    @pytest.mark.parametrize("mode", AUTOMATIC_MODES)
    def test_producer_consumer_blocks_and_wakes(self, mode):
        backend = SimulationBackend(seed=2)
        cell = Cell(backend=backend, signalling=mode)
        taken = []

        def consumer():
            for _ in range(10):
                taken.append(cell.take())

        def producer():
            for value in range(10):
                cell.put(value)

        backend.run([consumer, producer], ["consumer", "producer"])
        assert taken == list(range(10))
        assert cell.stats.waits > 0

    def test_waiters_are_woken_in_relay_fashion(self):
        backend = SimulationBackend(seed=5)
        cell = Cell(backend=backend, signalling="autosynch")

        order = []

        def waiter(generation):
            def body():
                cell.wait_for_generation(generation)
                order.append(generation)
            return body

        def driver():
            for value in range(3):
                cell.put(value)
                cell.take()

        backend.run(
            [waiter(1), waiter(2), waiter(3), driver],
            ["w1", "w2", "w3", "driver"],
        )
        assert sorted(order) == [1, 2, 3]

    def test_spurious_wakeups_are_handled(self):
        # Two consumers wait for the same value; only one can win.
        backend = SimulationBackend(seed=9)
        cell = Cell(backend=backend, signalling="baseline")
        winners = []

        def consumer():
            winners.append(cell.take())

        def producer():
            cell.put("only")

        def producer2():
            cell.put("second")

        backend.run([consumer, producer, producer2], ["consumer", "producer", "producer2"])
        assert winners == ["only"] or winners == ["second"]


class ExplicitCell(ExplicitMonitor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.value = None
        self.not_empty = self.new_condition("not_empty")
        self.not_full = self.new_condition("not_full")

    def put(self, value):
        while self.value is not None:
            self.wait_on(self.not_full)
        self.value = value
        self.signal(self.not_empty)

    def take(self):
        while self.value is None:
            self.wait_on(self.not_empty)
        value = self.value
        self.value = None
        self.signal(self.not_full)
        return value


class TestExplicitMonitor:
    def test_basic_usage(self):
        cell = ExplicitCell()
        cell.put(7)
        assert cell.take() == 7
        assert cell.stats.signals_sent == 2

    def test_signal_requires_monitor(self):
        cell = ExplicitCell()
        with pytest.raises(MonitorUsageError):
            cell.signal(cell.not_empty)

    def test_wait_requires_monitor(self):
        cell = ExplicitCell()
        with pytest.raises(MonitorUsageError):
            cell.wait_on(cell.not_empty)

    def test_signal_all_requires_monitor(self):
        cell = ExplicitCell()
        with pytest.raises(MonitorUsageError):
            cell.signal_all(cell.not_empty)

    def test_blocking_round_trip_on_simulation(self):
        backend = SimulationBackend(seed=3)
        cell = ExplicitCell(backend=backend)
        results = []

        def consumer():
            results.append(cell.take())

        def producer():
            cell.put(99)

        backend.run([consumer, producer], ["consumer", "producer"])
        assert results == [99]


@autosynch
class Turnstile:
    """Written in the preprocessor's surface syntax."""

    def __init__(self, limit):
        self.limit = limit
        self.inside = 0

    def enter(self):
        waituntil(self.inside < self.limit)
        self.inside += 1


#: The private fields the built-in problems' own monitor classes assign.
USER_PRIVATE_FIELDS = {("readers_writers", "explicit"): {"_turn_conditions"}}


class TestFrameworkState:
    """Framework state lives in slots: ``vars(monitor)`` is the user's fields."""

    @pytest.mark.parametrize("cls", [AutoSynchMonitor, ExplicitMonitor])
    def test_bare_monitor_has_no_fields(self, cls):
        assert vars(cls(backend=SimulationBackend(seed=1))) == {}

    @pytest.mark.parametrize(
        "name, mechanism",
        [
            (name, mechanism)
            for name in available_problems()
            for mechanism in ("explicit", "autosynch")
            if mechanism in get_problem(name).mechanisms
        ],
    )
    def test_builtin_problem_monitors_hold_only_user_fields(self, name, mechanism):
        problem = get_problem(name)
        built = problem.build(mechanism, SimulationBackend(seed=1), threads=2, total_ops=4)
        fields = set(vars(built.monitor))
        private = {field for field in fields if field.startswith("_")}
        assert fields - private
        assert private == USER_PRIVATE_FIELDS.get((name, mechanism), set())
        if isinstance(problem, ScenarioProblem):
            assert fields == set(problem.spec.state_names())

    def test_preprocessed_monitor_holds_only_user_fields(self):
        gate = Turnstile(2)
        gate.enter()
        assert vars(gate) == {"limit": 2, "inside": 1}

    def test_user_private_fields_stay_in_the_dict(self):
        class Tally(AutoSynchMonitor):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.total = 0
                self._seen = []

        assert vars(Tally()) == {"total": 0, "_seen": []}

