"""Unit tests for the condition manager's dirty-set (incremental) search."""

from __future__ import annotations

import pytest

from repro.core.condition_manager import ConditionManager
from repro.core.instrumentation import MonitorStats
from repro.core.write_tracking import WriteTracker
from repro.predicates import compile_predicate

from test_condition_manager import FakeBackend, FakeMonitor


class DeclaredMonitor(FakeMonitor):
    """Monitor double declaring its state names as tracked writes (the
    scenario-compiled-monitor contract)."""

    _tracked_write_names = frozenset({"items"})


def make_manager(owner, use_tags=False, tracker=None):
    backend = FakeBackend()
    stats = MonitorStats()
    manager = ConditionManager(
        owner=owner,
        backend=backend,
        lock=backend.create_lock(),
        stats=stats,
        use_tags=use_tags,
        write_tracker=tracker,
    )
    return manager, stats


def park(manager, source, shared, local_values=None):
    """Register *source* and add one waiter, like a thread about to block."""
    local_values = local_values or {}
    compiled = compile_predicate(source, shared, set(local_values))
    entry = manager.acquire_entry(
        compiled.globalized(local_values),
        from_shared_predicate=compiled.is_shared,
    )
    manager.add_waiter(entry)
    return entry


class TestDirtySetSearch:
    def test_false_entry_is_skipped_until_its_variable_is_written(self):
        tracker = WriteTracker()
        owner = FakeMonitor(flag=0)
        manager, stats = make_manager(owner, tracker=tracker)
        park(manager, "flag == 1", {"flag"})

        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 1
        assert stats.relay_entries_skipped == 0

        # Nothing written: the pass skips the entry without evaluating.
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 1
        assert stats.relay_entries_skipped == 1

        # A write to an unrelated name does not wake the entry up either.
        tracker.bump("other")
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 1
        assert stats.relay_entries_skipped == 2

        # A write to the tracked name forces re-evaluation — and it is true.
        owner.flag = 1
        tracker.bump("flag")
        assert manager.relay_signal()
        assert stats.predicate_evaluations == 2
        assert stats.signals_sent == 1

    def test_writes_while_only_tagged_entries_wait_leave_no_stale_skip(self):
        # While only tagged entries wait, a pass leaves the tracker's dirty
        # names undrained.  An untagged entry parked afterwards must still be
        # evaluated once, skipped while clean, and woken by a write.
        tracker = WriteTracker()
        owner = FakeMonitor(count=0, flag=1)
        manager, stats = make_manager(owner, use_tags=True, tracker=tracker)
        park(manager, "count >= n", {"count"}, {"n": 10})
        for value in (1, 2, 3):
            owner.count = value
            tracker.bump("count")
            tracker.bump("flag")
            assert not manager.relay_signal()
        assert stats.exhaustive_checks == 0

        entry = park(manager, "flag != 1", {"flag"})
        assert not manager.relay_signal()
        assert stats.exhaustive_checks == 1
        assert stats.relay_entries_skipped == 0

        assert not manager.relay_signal()
        assert stats.exhaustive_checks == 1
        assert stats.relay_entries_skipped == 1

        owner.flag = 0
        tracker.bump("flag")
        assert manager.relay_signal()
        assert stats.exhaustive_checks == 2
        assert entry.pending_signals == 1

    def test_exhaustive_manager_never_skips(self):
        owner = FakeMonitor(flag=0)
        manager, stats = make_manager(owner, tracker=None)
        park(manager, "flag == 1", {"flag"})
        assert not manager.relay_signal()
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 2
        assert stats.relay_entries_skipped == 0

    def test_interpreter_fallback_keeps_dirty_set_skipping(self):
        # A quarantined predicate is answered by the interpreter; the
        # dirty-set search must skip and re-wake it exactly as a closure.
        tracker = WriteTracker()
        owner = FakeMonitor(flag=0)
        manager, stats = make_manager(owner, tracker=tracker)
        entry = park(manager, "flag == 1", {"flag"})
        entry.globalized.quarantine()
        assert manager.incremental is True

        assert not manager.relay_signal()
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 1
        assert stats.relay_entries_skipped == 1

        owner.flag = 1
        tracker.bump("flag")
        assert manager.relay_signal()
        assert stats.predicate_evaluations == 2
        assert stats.interpreted_evaluations == 2
        assert stats.compiled_evaluations == 0

    def test_container_fields_are_never_marked_clean(self):
        tracker = WriteTracker()
        owner = FakeMonitor(items=[])
        manager, stats = make_manager(owner, tracker=tracker)
        park(manager, "len(items) > 0", {"items"})
        assert not manager.relay_signal()
        # A list can be mutated in place without any tracked write, so the
        # entry must be re-evaluated every pass.
        owner.items.append("x")
        assert manager.relay_signal()
        assert stats.predicate_evaluations == 2
        assert stats.relay_entries_skipped == 0

    def test_declared_tracked_names_allow_container_skipping(self):
        tracker = WriteTracker()
        owner = DeclaredMonitor(items=[])
        manager, stats = make_manager(owner, tracker=tracker)
        park(manager, "len(items) > 0", {"items"})
        assert not manager.relay_signal()
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 1
        assert stats.relay_entries_skipped == 1
        # The declared contract: every mutation is reported explicitly.
        owner.items.append("x")
        tracker.bump("items")
        assert manager.relay_signal()
        assert stats.predicate_evaluations == 2

    def test_query_predicates_are_never_skipped(self):
        class Gate:
            def is_open(self):
                return False

        tracker = WriteTracker()
        manager, stats = make_manager(FakeMonitor(gate=Gate()), tracker=tracker)
        # A method call on a shared object reads state no write to ``gate``
        # itself bounds, so the entry must be re-evaluated every pass.
        park(manager, "gate.is_open()", {"gate"})
        assert not manager.relay_signal()
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == 2
        assert stats.relay_entries_skipped == 0

    def test_reactivation_resets_cleanliness(self):
        tracker = WriteTracker()
        owner = FakeMonitor(flag=0)
        manager, stats = make_manager(owner, tracker=tracker)
        entry = park(manager, "flag == 1", {"flag"})
        assert not manager.relay_signal()
        manager.remove_waiter(entry)  # deactivates; cleanliness must not leak

        owner.flag = 1  # changed while inactive, with no tracked write
        entry = park(manager, "flag == 1", {"flag"})
        assert manager.relay_signal()
        assert stats.signals_sent == 1

    def test_fifo_search_skips_and_recovers(self):
        tracker = WriteTracker()
        owner = FakeMonitor(flag=0, gate=0)
        manager, stats = make_manager(owner, tracker=tracker)
        park(manager, "flag == 1", {"flag", "gate"})
        park(manager, "gate == 1", {"flag", "gate"})

        assert not manager.relay_signal_fifo()
        assert stats.predicate_evaluations == 2
        assert not manager.relay_signal_fifo()
        assert stats.predicate_evaluations == 2
        assert stats.relay_entries_skipped == 2

        owner.gate = 1
        tracker.bump("gate")
        assert manager.relay_signal_fifo()
        assert stats.predicate_evaluations == 3  # only the dirty entry


class TestTaggedDirtySet:
    def test_tagged_entries_skip_via_version_vector(self):
        tracker = WriteTracker()
        owner = FakeMonitor(count=0, open=0)
        manager, stats = make_manager(owner, use_tags=True, tracker=tracker)
        # Two conjuncts: the equivalence tag on ``count`` finds the entry,
        # but the whole predicate is false while ``open`` is 0 — the classic
        # "tag satisfied, predicate false" shape that incremental skipping
        # prunes on repeat passes.
        park(manager, "count == 0 and open == 1", {"count", "open"})

        assert not manager.relay_signal()
        evals_after_first = stats.predicate_evaluations
        assert evals_after_first >= 1

        assert not manager.relay_signal()
        assert stats.predicate_evaluations == evals_after_first
        assert stats.relay_entries_skipped >= 1

        owner.open = 1
        tracker.bump("open")
        assert manager.relay_signal()


class TestBatchedSearch:
    def test_relay_signal_stays_per_entry(self):
        tracker = WriteTracker()
        owner = FakeMonitor(count=-1)
        manager, stats = make_manager(owner, tracker=tracker)
        for i in range(4):
            park(manager, f"count > {i}", {"count"})
        assert not manager.relay_signal()
        assert stats.predicate_evaluations == stats.compiled_evaluations == 4

        # Every entry re-pends; the pass stops at the first true one.
        owner.count = 2
        tracker.bump("count")
        assert manager.relay_signal()
        assert stats.predicate_evaluations == 5
        assert stats.signals_sent == 1

    @pytest.mark.parametrize("limit", [1, 3, 8])
    @pytest.mark.parametrize("count", [-1, 2, 5])
    def test_signal_many_matches_exhaustive_selection(self, count, limit):
        owner_incremental = FakeMonitor(count=count)
        manager_incremental, stats_incremental = make_manager(
            owner_incremental, tracker=WriteTracker()
        )
        owner_plain = FakeMonitor(count=count)
        manager_plain, stats_plain = make_manager(owner_plain, tracker=None)
        for manager in (manager_incremental, manager_plain):
            for i in range(10):
                park(manager, f"count > {i}", {"count"})
        signalled = manager_incremental.signal_many(limit)
        assert signalled == manager_plain.signal_many(limit) == min(max(count, 0), limit)
        assert stats_incremental.signals_sent == stats_plain.signals_sent == signalled
        # Entry i holds iff i < count, so the entry that fills the limit is
        # at position *limit*; the pass stops there or sweeps all ten.
        filled_at = limit if count >= limit else 10
        assert stats_incremental.predicate_evaluations == filled_at
