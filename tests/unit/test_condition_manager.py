"""Unit tests for the condition manager (predicate table, tags, relay signal)."""

from __future__ import annotations

import pytest

from repro.core.condition_manager import ConditionManager
from repro.core.instrumentation import MonitorStats
from repro.predicates import compile_predicate
from repro.runtime import SimulationBackend, ThreadingBackend


class FakeMonitor:
    """Attribute bag standing in for a monitor instance."""

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)


class _FakeLock:
    def acquire(self):
        return None

    def release(self):
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


class _FakeCondition:
    """Condition double that just records notifications."""

    def __init__(self):
        self.notify_calls = 0
        self.notify_all_calls = 0

    def wait(self):  # pragma: no cover - never used in these unit tests
        raise AssertionError("unit tests never block")

    def notify(self):
        self.notify_calls += 1

    def notify_all(self):
        self.notify_all_calls += 1

    def waiter_count(self):
        return 0


class FakeBackend:
    """Minimal backend double for exercising the manager in isolation."""

    name = "fake"

    def create_lock(self):
        return _FakeLock()

    def create_condition(self, lock):
        return _FakeCondition()

    def current_id(self):
        return 0


def make_manager(owner, use_tags=True, inactive_capacity=4, backend=None):
    backend = backend or FakeBackend()
    lock = backend.create_lock()
    stats = MonitorStats()
    manager = ConditionManager(
        owner=owner,
        backend=backend,
        lock=lock,
        stats=stats,
        use_tags=use_tags,
        inactive_capacity=inactive_capacity,
    )
    return manager, stats, lock


def globalized(source, shared, local_values=None):
    local_values = local_values or {}
    compiled = compile_predicate(source, shared, set(local_values))
    return compiled, compiled.globalized(local_values)


class TestRegistration:
    def test_acquire_creates_entry(self):
        manager, stats, _ = make_manager(FakeMonitor(count=0))
        _, form = globalized("count > 0", {"count"})
        entry = manager.acquire_entry(form, from_shared_predicate=True)
        assert entry.canonical == "count > 0"
        assert entry.active
        assert stats.predicate_registrations == 1
        assert len(manager) == 1

    def test_syntax_equivalent_predicates_share_an_entry(self):
        manager, stats, _ = make_manager(FakeMonitor(count=0))
        _, first = globalized("count >= num", {"count"}, {"num": 48})
        _, second = globalized("count >= lower", {"count"}, {"lower": 48})
        entry_a = manager.acquire_entry(first, from_shared_predicate=False)
        entry_b = manager.acquire_entry(second, from_shared_predicate=False)
        assert entry_a is entry_b
        assert stats.predicate_registrations == 1
        assert stats.predicate_reuses == 1

    def test_different_globalizations_get_distinct_entries(self):
        manager, _, _ = make_manager(FakeMonitor(count=0))
        _, first = globalized("count >= num", {"count"}, {"num": 48})
        _, second = globalized("count >= num", {"count"}, {"num": 32})
        assert manager.acquire_entry(first, False) is not manager.acquire_entry(second, False)
        assert len(manager) == 2

    def test_entry_for_lookup(self):
        manager, _, _ = make_manager(FakeMonitor(count=0))
        _, form = globalized("count > 0", {"count"})
        manager.acquire_entry(form, True)
        assert manager.entry_for("count > 0") is not None
        assert manager.entry_for("count > 99") is None


class TestWaiterBookkeeping:
    def test_waiters_and_deactivation(self):
        manager, _, _ = make_manager(FakeMonitor(count=0))
        _, form = globalized("count > 0", {"count"})
        entry = manager.acquire_entry(form, True)
        manager.add_waiter(entry)
        manager.add_waiter(entry)
        assert entry.waiters == 2
        manager.remove_waiter(entry)
        assert entry.active
        manager.remove_waiter(entry)
        assert not entry.active

    def test_waiter_underflow_raises(self):
        from repro.core.errors import MonitorUsageError

        manager, _, _ = make_manager(FakeMonitor(count=0))
        _, form = globalized("count > 0", {"count"})
        entry = manager.acquire_entry(form, True)
        with pytest.raises(MonitorUsageError):
            manager.remove_waiter(entry)

    def test_shared_predicates_stay_in_the_table_when_inactive(self):
        manager, _, _ = make_manager(FakeMonitor(count=0))
        _, form = globalized("count > 0", {"count"})
        entry = manager.acquire_entry(form, from_shared_predicate=True)
        manager.add_waiter(entry)
        manager.remove_waiter(entry)
        assert not entry.active
        assert manager.entry_for("count > 0") is entry

    def test_inactive_complex_predicates_are_evicted_beyond_capacity(self):
        manager, _, _ = make_manager(FakeMonitor(count=0), inactive_capacity=2)
        for value in range(5):
            _, form = globalized("count >= num", {"count"}, {"num": value})
            entry = manager.acquire_entry(form, from_shared_predicate=False)
            manager.add_waiter(entry)
            manager.remove_waiter(entry)
        # Only the two most recently retired complex predicates remain.
        assert len(manager) == 2
        assert manager.entry_for("count >= 4") is not None
        assert manager.entry_for("count >= 3") is not None
        assert manager.entry_for("count >= 0") is None

    def test_reused_inactive_predicate_is_not_evicted(self):
        manager, _, _ = make_manager(FakeMonitor(count=0), inactive_capacity=2)
        _, keep = globalized("count >= num", {"count"}, {"num": 100})
        entry = manager.acquire_entry(keep, False)
        manager.add_waiter(entry)
        manager.remove_waiter(entry)
        # Re-acquire it (a new waiter arrives), then retire others.
        entry = manager.acquire_entry(keep, False)
        manager.add_waiter(entry)
        for value in range(3):
            _, form = globalized("count >= num", {"count"}, {"num": value})
            other = manager.acquire_entry(form, False)
            manager.add_waiter(other)
            manager.remove_waiter(other)
        assert manager.entry_for("count >= 100") is entry
        manager.remove_waiter(entry)


class TestRelaySignalWithTags:
    def test_signals_thread_whose_predicate_is_true(self):
        monitor = FakeMonitor(count=10)
        manager, stats, _ = make_manager(monitor)
        _, form = globalized("count >= num", {"count"}, {"num": 5})
        entry = manager.acquire_entry(form, False)
        manager.add_waiter(entry)
        assert manager.relay_signal() is True
        assert entry.pending_signals == 1
        assert stats.signals_sent == 1

    def test_does_not_signal_false_predicates(self):
        monitor = FakeMonitor(count=1)
        manager, stats, _ = make_manager(monitor)
        _, form = globalized("count >= num", {"count"}, {"num": 5})
        entry = manager.acquire_entry(form, False)
        manager.add_waiter(entry)
        assert manager.relay_signal() is False
        assert stats.signals_sent == 0

    def test_signals_at_most_one_thread(self):
        monitor = FakeMonitor(count=10)
        manager, stats, _ = make_manager(monitor)
        for num in (2, 3):
            _, form = globalized("count >= num", {"count"}, {"num": num})
            entry = manager.acquire_entry(form, False)
            manager.add_waiter(entry)
        assert manager.relay_signal() is True
        assert stats.signals_sent == 1

    def test_does_not_resignal_already_signalled_entry(self):
        monitor = FakeMonitor(count=10)
        manager, stats, _ = make_manager(monitor)
        _, form = globalized("count >= num", {"count"}, {"num": 5})
        entry = manager.acquire_entry(form, False)
        manager.add_waiter(entry)
        assert manager.relay_signal() is True
        # The only waiter has already been promised a signal.
        assert manager.relay_signal() is False
        assert stats.signals_sent == 1

    def test_consume_signal_allows_resignalling(self):
        monitor = FakeMonitor(count=10)
        manager, _, _ = make_manager(monitor)
        _, form = globalized("count >= num", {"count"}, {"num": 5})
        entry = manager.acquire_entry(form, False)
        manager.add_waiter(entry)
        manager.relay_signal()
        manager.consume_signal(entry)
        assert manager.relay_signal() is True

    def test_equivalence_hash_finds_the_right_predicate(self):
        monitor = FakeMonitor(turn=6)
        manager, stats, _ = make_manager(monitor)
        entries = {}
        for me in (3, 6, 8):
            _, form = globalized("turn == me", {"turn"}, {"me": me})
            entry = manager.acquire_entry(form, False)
            manager.add_waiter(entry)
            entries[me] = entry
        assert manager.relay_signal() is True
        assert entries[6].pending_signals == 1
        assert entries[3].pending_signals == 0
        assert entries[8].pending_signals == 0
        # Only the hash-selected predicate was evaluated.
        assert stats.predicate_evaluations == 1

    def test_threshold_heap_prunes_unreachable_predicates(self):
        monitor = FakeMonitor(count=4)
        manager, stats, _ = make_manager(monitor)
        for num in (5, 7, 9):
            _, form = globalized("count >= num", {"count"}, {"num": num})
            entry = manager.acquire_entry(form, False)
            manager.add_waiter(entry)
        assert manager.relay_signal() is False
        # The weakest bound (>= 5) is false, so no predicate body is evaluated.
        assert stats.predicate_evaluations == 0

    def test_threshold_heap_skips_true_tag_with_false_predicate(self):
        # Mirrors the paper's Fig. 4 walk-through: P1: x >= 5 and y != 1,
        # P2: x > 7; with x = 9, y = 1 only P2 can be signalled.
        monitor = FakeMonitor(x=9, y=1)
        manager, _, _ = make_manager(monitor)
        _, p1 = globalized("x >= lo and y != bad", {"x", "y"}, {"lo": 5, "bad": 1})
        _, p2 = globalized("x > hi", {"x"}, {"hi": 7})
        entry1 = manager.acquire_entry(p1, False)
        entry2 = manager.acquire_entry(p2, False)
        manager.add_waiter(entry1)
        manager.add_waiter(entry2)
        assert manager.relay_signal() is True
        assert entry1.pending_signals == 0
        assert entry2.pending_signals == 1

    def test_none_tag_predicates_are_checked_exhaustively(self):
        monitor = FakeMonitor(ready=True)
        manager, stats, _ = make_manager(monitor)
        _, form = globalized("ready", {"ready"})
        entry = manager.acquire_entry(form, True)
        manager.add_waiter(entry)
        assert manager.relay_signal() is True
        assert stats.exhaustive_checks >= 1

    def test_disjunctive_predicate_signalled_via_either_tag(self):
        monitor = FakeMonitor(x=3)
        manager, _, _ = make_manager(monitor)
        _, form = globalized("x >= hi or x == lo", {"x"}, {"hi": 8, "lo": 3})
        entry = manager.acquire_entry(form, False)
        manager.add_waiter(entry)
        assert manager.relay_signal() is True
        assert entry.pending_signals == 1


class TestColumnProbes:
    def test_columns_probe_through_the_compiled_closure(self):
        from repro.predicates.codegen import compile_expr

        monitor = FakeMonitor(count=4)
        manager, stats, _ = make_manager(monitor)
        _, form = globalized("count >= num", {"count"}, {"num": 5})
        manager.add_waiter(manager.acquire_entry(form, False))
        (index,) = manager._indices.values()
        assert index.probe is compile_expr(index.shared_expr)
        assert manager.relay_signal() is False
        # A probe is no predicate evaluation, compiled or interpreted.
        assert stats.compiled_evaluations == stats.interpreted_evaluations == 0

    def test_a_misbehaving_probe_is_quarantined_for_good(self):
        monitor = FakeMonitor(count=10)
        manager, stats, _ = make_manager(monitor)
        _, form = globalized("count >= num", {"count"}, {"num": 5})
        entry = manager.acquire_entry(form, False)
        manager.add_waiter(entry)
        (index,) = manager._indices.values()
        calls = []

        def broken_probe(state, reader, locals_map):
            calls.append(state)
            raise TypeError("codegen bug")

        index.probe = broken_probe
        manager._probes[index.expr_key] = broken_probe
        # The interpreter serves the pass that quarantined the probe ...
        assert manager.relay_signal() is True
        assert entry.pending_signals == 1
        assert index.probe is None
        assert len(calls) == 1
        # ... and every later one, also after the column is dropped and
        # created again.
        manager.consume_signal(entry)
        manager.remove_waiter(entry)
        assert not manager._indices
        entry = manager.acquire_entry(form, False)
        manager.add_waiter(entry)
        (index,) = manager._indices.values()
        assert index.probe is None
        assert manager.relay_signal() is True
        assert len(calls) == 1
        assert stats.predicate_quarantines == 0

    def test_probe_evaluation_errors_skip_the_column(self):
        monitor = FakeMonitor(count=10)
        manager, _, _ = make_manager(monitor)
        _, form = globalized("count >= num", {"count"}, {"num": 5})
        manager.add_waiter(manager.acquire_entry(form, False))
        del monitor.count
        assert manager.relay_signal() is False
        (index,) = manager._indices.values()
        assert index.probe is not None  # an EvaluationError is not a misbehaviour


class TestRelaySignalWithoutTags:
    def test_exhaustive_search_still_finds_true_predicate(self):
        monitor = FakeMonitor(count=10)
        manager, stats, _ = make_manager(monitor, use_tags=False)
        for num in (20, 5, 30):
            _, form = globalized("count >= num", {"count"}, {"num": num})
            entry = manager.acquire_entry(form, False)
            manager.add_waiter(entry)
        assert manager.relay_signal() is True
        # Without tags every active predicate may need to be evaluated.
        assert stats.predicate_evaluations >= 2

    def test_no_tag_structures_are_built(self):
        monitor = FakeMonitor(count=10)
        manager, stats, _ = make_manager(monitor, use_tags=False)
        _, form = globalized("count >= num", {"count"}, {"num": 5})
        entry = manager.acquire_entry(form, False)
        manager.add_waiter(entry)
        assert stats.tag_insertions == 0

    def test_works_on_simulation_backend_conditions(self):
        backend = SimulationBackend()
        monitor = FakeMonitor(count=10)
        manager, _, _ = make_manager(monitor, backend=backend)
        _, form = globalized("count > 0", {"count"})
        entry = manager.acquire_entry(form, True)
        assert entry.condition is not None
