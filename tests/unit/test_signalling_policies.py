"""Unit tests for the pluggable signalling-policy subsystem."""

from __future__ import annotations

import pytest

from repro.core import AutoSynchMonitor
from repro.core.condition_manager import ConditionManager
from repro.core.errors import MonitorUsageError
from repro.core.instrumentation import MonitorStats
from repro.core.signalling import (
    BatchedRelayPolicy,
    BroadcastPolicy,
    FifoRelayPolicy,
    RelayExhaustivePolicy,
    RelayPolicyBase,
    RelayTaggedPolicy,
    SignallingPolicy,
    available_policies,
    create_policy,
    describe_policy,
    get_policy,
    register_policy,
    unregister_policy,
)
from repro.predicates import compile_predicate
from repro.runtime import SimulationBackend, create_backend

EXPECTED_POLICIES = (
    "autosynch",
    "autosynch_t",
    "baseline",
    "relay_batched",
    "relay_fifo",
)


class Cell(AutoSynchMonitor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.value = None

    def put(self, value):
        self.wait_until("value is None")
        self.value = value

    def take(self):
        self.wait_until("value is not None")
        value = self.value
        self.value = None
        return value


class Scoreboard(AutoSynchMonitor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.score = 0

    def add(self, amount):
        self.score += amount

    def wait_for(self, threshold):
        self.wait_until("score >= threshold", threshold=threshold)
        return self.score


class Buffer(AutoSynchMonitor):
    def __init__(self, capacity, **kwargs):
        super().__init__(**kwargs)
        self.items = []
        self.capacity = capacity

    def put(self, item):
        self.wait_until("len(items) < capacity")
        self.items.append(item)

    def take(self):
        self.wait_until("len(items) > 0")
        return self.items.pop(0)


class HooksOnlyPolicy(SignallingPolicy):
    """A policy written against the two required hooks alone: every waiter
    parks on one condition, made at the first wait, and every hand-off
    wakes them all.  The wait loop, its timeouts and the monitor-exit hook
    are the base class's."""

    name = "hooks_only_test"
    _condition = None

    def _enlist(self, compiled, local_values):
        if self._condition is None:
            self._condition = self.monitor._create_condition()
        return self._condition, compiled.source, compiled, local_values, None

    def _hand_off(self):
        if self._condition is not None:
            self._condition.notify_all()


class TestRegistry:
    def test_all_builtin_policies_are_registered(self):
        names = available_policies()
        assert len(names) >= 5
        for expected in EXPECTED_POLICIES:
            assert expected in names

    def test_legacy_names_resolve_to_the_extracted_policies(self):
        assert get_policy("autosynch") is RelayTaggedPolicy
        assert get_policy("autosynch_t") is RelayExhaustivePolicy
        assert get_policy("baseline") is BroadcastPolicy
        assert get_policy("relay_batched") is BatchedRelayPolicy
        assert get_policy("relay_fifo") is FifoRelayPolicy

    def test_unknown_name_raises_value_error_listing_policies(self):
        with pytest.raises(ValueError) as excinfo:
            get_policy("telepathy")
        assert "autosynch" in str(excinfo.value)

    def test_describe_policy_is_nonempty_for_every_registration(self):
        for name in available_policies():
            assert describe_policy(name).strip()

    def test_describe_policy_handles_constructors_with_required_args(self):
        class Tuned(RelayPolicyBase):
            name = "relay_tuned_test"
            description = "relay with a mandatory tuning knob (test only)"

            def __init__(self, knob):
                super().__init__()
                self.knob = knob

        register_policy(Tuned)
        try:
            assert describe_policy("relay_tuned_test") == Tuned.description
        finally:
            unregister_policy("relay_tuned_test")

    def test_duplicate_registration_is_rejected(self):
        class Impostor(BroadcastPolicy):
            name = "baseline"

        with pytest.raises(ValueError):
            register_policy(Impostor)
        # ... unless explicitly replacing; restore the original afterwards.
        register_policy(Impostor, replace=True)
        try:
            assert get_policy("baseline") is Impostor
        finally:
            register_policy(BroadcastPolicy, replace=True)

    def test_register_rejects_non_policy_and_unnamed_classes(self):
        with pytest.raises(TypeError):
            register_policy(object)

        class Nameless(RelayPolicyBase):
            pass

        with pytest.raises(ValueError):
            register_policy(Nameless)

    def test_create_policy_accepts_name_class_and_instance(self):
        assert isinstance(create_policy("relay_fifo"), FifoRelayPolicy)
        assert isinstance(create_policy(BatchedRelayPolicy), BatchedRelayPolicy)
        configured = BatchedRelayPolicy(batch_limit=9)
        assert create_policy(configured) is configured
        with pytest.raises(TypeError):
            create_policy(42)


class TestMonitorIntegration:
    @pytest.mark.parametrize("name", EXPECTED_POLICIES)
    def test_monitor_accepts_every_registered_name(self, name):
        cell = Cell(signalling=name)
        assert cell.signalling == name
        cell.put(1)
        assert cell.take() == 1

    def test_monitor_accepts_policy_class_and_instance(self):
        assert Cell(signalling=FifoRelayPolicy).signalling == "relay_fifo"
        cell = Cell(signalling=BatchedRelayPolicy(batch_limit=2))
        assert cell.signalling == "relay_batched"
        assert cell.signalling_policy.batch_limit == 2

    def test_policy_instances_cannot_be_shared_between_monitors(self):
        policy = BatchedRelayPolicy()
        Cell(signalling=policy)
        with pytest.raises(MonitorUsageError):
            Cell(signalling=policy)

    def test_unbound_policy_has_no_monitor(self):
        with pytest.raises(MonitorUsageError):
            BatchedRelayPolicy().monitor

    def test_invalid_signalling_still_raises_value_error(self):
        with pytest.raises(ValueError):
            Cell(signalling="telepathy")

    def test_condition_manager_exposed_per_policy(self):
        assert Cell(signalling="relay_batched").condition_manager is not None
        assert Cell(signalling="relay_fifo").condition_manager is not None
        assert Cell(signalling="baseline").condition_manager is None

    def test_tag_usage_follows_the_policy(self):
        assert Cell(signalling="autosynch").condition_manager.use_tags
        assert Cell(signalling="relay_batched").condition_manager.use_tags
        assert not Cell(signalling="autosynch_t").condition_manager.use_tags
        assert not Cell(signalling="relay_fifo").condition_manager.use_tags

    @pytest.mark.parametrize("name", ["relay_batched", "relay_fifo"])
    def test_new_policies_run_a_blocking_workload(self, name):
        backend = SimulationBackend(seed=11)
        cell = Cell(backend=backend, signalling=name)
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
        assert cell.stats.signal_alls_sent == 0


class TestOneWaitLoop:
    @pytest.mark.parametrize("backend_name", ["threading", "asyncio", "simulation"])
    def test_a_hooks_only_policy_runs_on_every_backend(self, backend_name):
        """One wait loop serves the blocking driver (threading) and the
        awaiting one (asyncio tasks, simulated threads) alike."""
        backend = create_backend(backend_name)
        buffer = Buffer(2, backend=backend, signalling=HooksOnlyPolicy)
        taken = []

        def producer():
            for item in range(20):
                buffer.put(item)

        def consumer():
            for _ in range(10):
                taken.append(buffer.take())

        backend.run([producer, consumer, consumer], ["producer", "c0", "c1"])
        assert sorted(taken) == list(range(20))
        assert buffer.stats.waits > 0
        assert buffer.stats.wakeups == buffer.stats.waits

    def test_parking_hands_off_without_on_monitor_exit(self):
        """``on_monitor_exit`` is for entry returns only: a policy that
        overrides it (the seeded lossy relays do) sees one call per entry,
        however many times the wait loop parks and hands off."""

        class CountingExits(RelayTaggedPolicy):
            name = "counting_exits_test"
            exits = 0

            def on_monitor_exit(self):
                self.exits += 1
                super().on_monitor_exit()

        backend = SimulationBackend(seed=11)
        cell = Cell(backend=backend, signalling=CountingExits)

        def consumer():
            for _ in range(10):
                cell.take()

        def producer():
            for value in range(10):
                cell.put(value)

        backend.run([consumer, producer], ["consumer", "producer"])
        assert cell.stats.waits > 0
        assert cell.signalling_policy.exits == cell.stats.entries == 20


class TestBatchedRelay:
    def test_batch_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchedRelayPolicy(batch_limit=0)

    def test_one_exit_wakes_a_whole_batch(self):
        from repro.core.trace import Tracer

        backend = SimulationBackend(seed=7)
        tracer = Tracer()
        board = Scoreboard(
            backend=backend,
            signalling=BatchedRelayPolicy(batch_limit=8),
            tracer=tracer,
        )
        woken = []

        def waiter(threshold):
            def body():
                woken.append((threshold, board.wait_for(threshold)))
            return body

        def scorer():
            board.add(100)  # satisfies every waiter at once

        backend.run([waiter(t) for t in (10, 20, 30, 40)] + [scorer])
        assert sorted(t for t, _ in woken) == [10, 20, 30, 40]
        # Every woken thread was genuinely ready (all four predicates held
        # when the batch was signalled), so batching added no noise ...
        assert board.stats.spurious_wakeups == 0
        # ... and one single relay search delivered the whole batch, where
        # the per-wait relay would have chained four searches.
        relay_details = [e.detail for e in tracer.events if e.kind == "relay"]
        assert "signalled 4" in relay_details

    def test_batched_relay_signals_at_most_k_per_search(self):
        backend = SimulationBackend(seed=3)
        board = Scoreboard(backend=backend, signalling=BatchedRelayPolicy(batch_limit=2))

        def waiter(threshold):
            def body():
                board.wait_for(threshold)
            return body

        def scorer():
            board.add(100)

        backend.run([waiter(t) for t in (1, 2, 3, 4, 5)] + [scorer])
        assert board.stats.signals_sent >= 5


class TestConditionManagerPrimitives:
    class FakeMonitor:
        def __init__(self, **fields):
            for name, value in fields.items():
                setattr(self, name, value)

    class _FakeLock:
        def acquire(self):
            return None

        def release(self):
            return None

    class _FakeCondition:
        def __init__(self):
            self.notify_calls = 0

        def wait(self):  # pragma: no cover - never blocks in unit tests
            raise AssertionError("unit tests never block")

        def notify(self):
            self.notify_calls += 1

        def notify_n(self, n):
            self.notify_calls += n

        def notify_all(self):
            pass

    class FakeBackend:
        name = "fake"

        def create_lock(self):
            return TestConditionManagerPrimitives._FakeLock()

        def create_condition(self, lock):
            return TestConditionManagerPrimitives._FakeCondition()

        def current_id(self):
            return 0

    def make_manager(self, owner, use_tags=True):
        backend = self.FakeBackend()
        return ConditionManager(
            owner=owner,
            backend=backend,
            lock=backend.create_lock(),
            stats=MonitorStats(),
            use_tags=use_tags,
        )

    def entry_with_waiters(self, manager, source, shared, local_values, waiters=1):
        compiled = compile_predicate(source, shared, set(local_values))
        entry = manager.acquire_entry(
            compiled.globalized(local_values), from_shared_predicate=compiled.is_shared
        )
        for _ in range(waiters):
            manager.add_waiter(entry)
        return entry

    def test_signal_many_wakes_up_to_limit(self):
        monitor = self.FakeMonitor(count=10)
        manager = self.make_manager(monitor)
        entries = [
            self.entry_with_waiters(manager, "count >= num", {"count"}, {"num": num})
            for num in (2, 4, 6)
        ]
        assert manager.signal_many(2) == 2
        assert sum(entry.pending_signals for entry in entries) == 2
        assert manager.signal_many(5) == 1  # only one un-promised waiter left

    def test_signal_many_spends_several_signals_on_one_entry(self):
        monitor = self.FakeMonitor(count=10)
        manager = self.make_manager(monitor)
        entry = self.entry_with_waiters(
            manager, "count >= num", {"count"}, {"num": 3}, waiters=3
        )
        assert manager.signal_many(2) == 2
        assert entry.pending_signals == 2
        assert entry.condition.notify_calls == 2

    def test_signal_many_rejects_non_positive_limit(self):
        manager = self.make_manager(self.FakeMonitor(count=0))
        with pytest.raises(ValueError):
            manager.signal_many(0)

    def test_signal_many_returns_zero_when_nothing_is_ready(self):
        monitor = self.FakeMonitor(count=0)
        manager = self.make_manager(monitor)
        self.entry_with_waiters(manager, "count >= num", {"count"}, {"num": 5})
        assert manager.signal_many(4) == 0

    def test_enqueue_sequence_numbers_are_monotonic(self):
        monitor = self.FakeMonitor(count=0)
        manager = self.make_manager(monitor, use_tags=False)
        first = self.entry_with_waiters(manager, "count >= num", {"count"}, {"num": 5})
        second = self.entry_with_waiters(manager, "count >= num", {"count"}, {"num": 9})
        assert first.next_unsignalled_seq < second.next_unsignalled_seq
        manager.remove_waiter(first)
        assert first.next_unsignalled_seq is None

    def test_fifo_relay_picks_the_longest_waiting_true_predicate(self):
        monitor = self.FakeMonitor(count=0)
        manager = self.make_manager(monitor, use_tags=False)
        oldest = self.entry_with_waiters(manager, "count >= num", {"count"}, {"num": 4})
        newest = self.entry_with_waiters(manager, "count >= num", {"count"}, {"num": 2})
        monitor.count = 10  # both predicates now hold
        assert manager.relay_signal_fifo() is True
        assert oldest.pending_signals == 1
        assert newest.pending_signals == 0
        assert manager.relay_signal_fifo() is True
        assert newest.pending_signals == 1

    def test_fifo_relay_skips_false_predicates(self):
        monitor = self.FakeMonitor(count=3)
        manager = self.make_manager(monitor, use_tags=False)
        blocked = self.entry_with_waiters(manager, "count >= num", {"count"}, {"num": 9})
        ready = self.entry_with_waiters(manager, "count >= num", {"count"}, {"num": 1})
        assert manager.relay_signal_fifo() is True
        assert blocked.pending_signals == 0
        assert ready.pending_signals == 1

    def test_fifo_relay_returns_false_when_nothing_ready(self):
        monitor = self.FakeMonitor(count=0)
        manager = self.make_manager(monitor, use_tags=False)
        self.entry_with_waiters(manager, "count >= num", {"count"}, {"num": 5})
        assert manager.relay_signal_fifo() is False

    def test_fifo_relay_skips_retired_entries(self):
        monitor = self.FakeMonitor(count=10)
        manager = self.make_manager(monitor, use_tags=False)
        # Retire a few complex predicates (no waiters left -> inactive, but
        # they stay in the table for reuse).
        for num in (20, 30, 40):
            entry = self.entry_with_waiters(
                manager, "count >= num", {"count"}, {"num": num}
            )
            manager.remove_waiter(entry)
        active = self.entry_with_waiters(manager, "count >= num", {"count"}, {"num": 1})
        assert manager.relay_signal_fifo() is True
        assert active.pending_signals == 1
        # Only the live entry was scanned — retired rows cost nothing.
        assert manager._stats.exhaustive_checks == 1


class TestFifoFairness:
    def test_longest_waiter_wins_when_several_predicates_hold(self):
        backend = SimulationBackend(seed=19)
        board = Scoreboard(backend=backend, signalling="relay_fifo")
        order = []

        def waiter(threshold):
            def body():
                board.wait_for(threshold)
                order.append(threshold)
            return body

        def scorer():
            board.add(100)  # all predicates become true at once

        # Spawn order = enqueue order on the deterministic default scheduler.
        backend.run([waiter(t) for t in (30, 10, 20)] + [scorer])
        assert order == [30, 10, 20]


class TestLateFieldCompilation:
    def test_predicate_may_reference_a_field_assigned_after_first_wait(self):
        class Lazy(AutoSynchMonitor):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.ready = True

            def warm_up(self):
                # Forces the shared-name set to be computed before ``level``
                # exists.
                self.wait_until("ready")

            def arm(self, level):
                self.level = level

            def check(self):
                self.wait_until("level >= 1")
                return self.level

        lazy = Lazy()
        lazy.warm_up()
        lazy.arm(3)
        assert lazy.check() == 3

    def test_unknown_names_still_raise(self):
        from repro.predicates import ClassificationError

        class Bad(AutoSynchMonitor):
            def __init__(self):
                super().__init__()
                self.x = 1

            def go(self):
                self.wait_until("no_such_field > 0")

        with pytest.raises(ClassificationError):
            Bad().go()


class TestDerivedMechanismSets:
    def test_legacy_tuple_is_derived_from_the_registry(self):
        from repro.problems.base import AUTOMATIC_MECHANISMS, MECHANISMS, all_mechanisms

        assert set(AUTOMATIC_MECHANISMS) <= set(available_policies())
        assert MECHANISMS == ("explicit",) + AUTOMATIC_MECHANISMS
        assert set(all_mechanisms()) == {"explicit", *available_policies()}

    def test_problems_accept_every_registered_policy(self):
        from repro.problems import get_problem

        problem = get_problem("bounded_buffer")
        for name in available_policies():
            assert name in problem.supported_mechanisms()
        with pytest.raises(ValueError):
            problem._check_mechanism("telepathy")

    def test_custom_policy_is_usable_end_to_end(self):
        calls = []

        class CountingRelay(RelayTaggedPolicy):
            name = "relay_counting_test"
            description = "tagged relay that counts hand-offs (test only)"

            def relay(self):
                calls.append(1)
                return super().relay()

        register_policy(CountingRelay)
        try:
            assert "relay_counting_test" in available_policies()
            backend = SimulationBackend(seed=2)
            cell = Cell(backend=backend, signalling="relay_counting_test")
            taken = []

            def consumer():
                taken.append(cell.take())

            def producer():
                cell.put(5)

            backend.run([consumer, producer], ["consumer", "producer"])
            assert taken == [5]
            assert calls  # the custom hook actually drove the signalling
            from repro.problems import get_problem

            assert "relay_counting_test" in get_problem("h2o").supported_mechanisms()
        finally:
            unregister_policy("relay_counting_test")


class TestReportLabels:
    def test_mechanism_labels_come_from_policy_describe(self):
        from repro.harness.results import mechanism_label

        assert mechanism_label("autosynch") == describe_policy("autosynch")
        assert "explicit" in mechanism_label("explicit")
        assert mechanism_label("no_such_mechanism") == "no_such_mechanism"

    def test_series_table_includes_a_policy_legend(self):
        from repro.harness.report import format_series_table
        from repro.harness.results import ExperimentSeries, MeasurementPoint

        series = ExperimentSeries(name="demo", x_label="#t", backend="simulation")
        for mechanism in ("autosynch", "relay_batched"):
            series.add(
                MeasurementPoint(
                    problem="demo",
                    mechanism=mechanism,
                    backend="simulation",
                    threads=2,
                    repetitions=1,
                    wall_time=0.1,
                    modelled_runtime=0.1,
                    context_switches=1.0,
                    predicate_evaluations=1.0,
                    signals=1.0,
                )
            )
        text = format_series_table(series, "wall_time")
        assert describe_policy("autosynch") in text
        assert describe_policy("relay_batched") in text
        assert describe_policy("relay_batched") not in format_series_table(
            series, "wall_time", legend=False
        )
