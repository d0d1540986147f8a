"""Unit tests for shared-variable write tracking and its monitor gating."""

from __future__ import annotations

from repro.core.monitor import AutoSynchMonitor
from repro.core.write_tracking import (
    WriteTracker,
    incremental_enabled,
    set_incremental_enabled,
)
from repro.runtime import SimulationBackend


class Cell(AutoSynchMonitor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.value = 0
        self._hidden = 0


class CustomSetattrCell(Cell):
    """Overriding __setattr__ means writes may bypass the tracking hook."""

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)


class PreprocessedCell(Cell):
    """Carries the source-to-source preprocessor marker."""

    _autosynch_options = {"from": "preprocessor"}


class Reader(Cell):
    def read(self):
        return self.value

    def wait_positive(self):
        self.wait_until("value > 0")
        return self.value

    def set(self, value):
        self.value = value


class Buffer(AutoSynchMonitor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.count = 0
        self.capacity = 2

    def put(self):
        self.wait_until("count < capacity")
        self.count += 1

    def take(self):
        self.wait_until("count > 0")
        self.count -= 1


class PoisonHook:
    """Fault hook making every monitor-side compiled evaluation raise."""

    def on_compiled_eval(self, monitor):
        raise RuntimeError("poisoned closure")


class TestWriteTracker:
    def test_bump_advances_clock_and_versions(self):
        tracker = WriteTracker()
        assert tracker.version("x") == 0
        tracker.bump("x")
        tracker.bump("y")
        tracker.bump("x")
        assert tracker.clock == 3
        assert tracker.version("x") == 3
        assert tracker.version("y") == 2
        assert tracker.version("z") == 0

    def test_written_since(self):
        tracker = WriteTracker()
        tracker.bump("x")
        mark = tracker.clock
        assert not tracker.written_since(("x",), mark)
        tracker.bump("y")
        assert not tracker.written_since(("x",), mark)
        assert tracker.written_since(("x", "y"), mark)
        # None means "never observed clean": always treated as written.
        assert tracker.written_since(("x",), None)

    def test_drain_returns_and_clears_dirty_names(self):
        tracker = WriteTracker()
        tracker.bump("a")
        tracker.bump("b")
        tracker.bump("a")
        assert tracker.drain() == {"a", "b"}
        assert tracker.drain() == set()
        tracker.bump("c")
        assert tracker.drain() == {"c"}


class TestGlobalToggle:
    def test_set_incremental_enabled_returns_previous(self):
        previous = set_incremental_enabled(False)
        try:
            assert incremental_enabled() is False
            assert set_incremental_enabled(True) is False
            assert incremental_enabled() is True
        finally:
            set_incremental_enabled(previous)

    def test_toggle_off_disables_monitor_tracking(self):
        previous = set_incremental_enabled(False)
        try:
            cell = Cell(backend=SimulationBackend(seed=1))
            assert cell.write_tracker is None
            assert cell.condition_manager.incremental is False
        finally:
            set_incremental_enabled(previous)
        cell.value = 7
        cell._hidden = 1
        assert (cell.value, cell._hidden) == (7, 1)
        assert cell.stats.tracked_writes == 0

    def test_toggle_is_read_at_construction(self):
        # The toggle is the only switch: a monitor keeps the search it was
        # built with, whichever way the toggle flips afterwards.
        tracked = Cell(backend=SimulationBackend(seed=1))
        previous = set_incremental_enabled(False)
        try:
            untracked = Cell(backend=SimulationBackend(seed=1))
            assert tracked.write_tracker is not None
            assert tracked.condition_manager.incremental is True
        finally:
            set_incremental_enabled(previous)
        assert untracked.write_tracker is None
        assert untracked.condition_manager.incremental is False


class TestMonitorIntegration:
    def test_public_assignments_are_tracked(self):
        cell = Cell(backend=SimulationBackend(seed=1))
        tracker = cell.write_tracker
        assert tracker is not None
        baseline = tracker.version("value")
        cell.value = 7
        assert tracker.version("value") > baseline
        assert cell.stats.tracked_writes >= 1

    def test_private_assignments_are_not_tracked(self):
        cell = Cell(backend=SimulationBackend(seed=1))
        tracker = cell.write_tracker
        clock = tracker.clock
        cell._hidden = 99
        assert tracker.clock == clock

    def test_bump_write_reports_in_place_mutations(self):
        cell = Cell(backend=SimulationBackend(seed=1))
        tracker = cell.write_tracker
        clock = tracker.clock
        cell._bump_write("value")
        assert tracker.version("value") == tracker.clock > clock

    def test_custom_setattr_disables_tracking(self):
        cell = CustomSetattrCell(backend=SimulationBackend(seed=1))
        assert cell.write_tracker is None

    def test_preprocessor_marker_disables_tracking(self):
        cell = PreprocessedCell(backend=SimulationBackend(seed=1))
        assert cell.write_tracker is None

    def test_manager_is_incremental_by_default(self):
        cell = Cell(backend=SimulationBackend(seed=1))
        assert cell.condition_manager.incremental is True

    def test_quarantined_predicates_keep_incremental_relay(self):
        # Closures that raise are quarantined mid-run and the interpreter
        # answers from then on, under the same dirty-set search.
        backend = SimulationBackend(seed=3)
        buffer = Buffer(backend=backend)
        buffer._fault_hook = PoisonHook()
        assert buffer.condition_manager.incremental is True

        def producer():
            for _ in range(8):
                buffer.put()

        def consumer():
            for _ in range(8):
                buffer.take()

        backend.run([producer, consumer])
        stats = buffer.stats
        assert buffer.count == 0
        assert stats.predicate_quarantines > 0
        assert stats.interpreted_evaluations > 0
        assert stats.tracked_writes > 0

    def test_ownership_is_not_a_tracked_write(self, monkeypatch):
        # Entering, leaving and parking record the owner without running the
        # write-tracking hook: a read-only entry method makes no __setattr__
        # call at all, and a park/wake cycle makes none for the owner.
        names = []
        original = AutoSynchMonitor.__setattr__

        def counting_setattr(self, name, value):
            names.append(name)
            original(self, name, value)

        monkeypatch.setattr(AutoSynchMonitor, "__setattr__", counting_setattr)
        backend = SimulationBackend(seed=1)
        reader = Reader(backend=backend)
        assert reader.write_tracker is not None
        constructed = reader.stats.tracked_writes
        results = []

        def read():
            results.append(reader.read())

        def wait_positive():
            results.append(reader.wait_positive())

        def set_five():
            reader.set(5)

        names.clear()
        backend.run([read])
        assert results == [0]
        assert names == []
        assert reader.stats.tracked_writes == constructed

        backend.run([wait_positive, set_five])
        assert results == [0, 5]
        assert reader.stats.waits >= 1
        assert "_owner_id" not in names
        assert names.count("value") == reader.stats.tracked_writes - constructed == 1

        # Framework state is written without the hook as well: building a
        # monitor and one park/wake cycle make hook calls for the user's
        # fields only.
        names.clear()
        buffer = Buffer(backend=backend)

        def take():
            buffer.take()

        def put():
            buffer.put()

        backend.run([take, put])
        assert buffer.stats.waits == 1
        assert names == ["count", "capacity", "count", "count"]

    def test_autosynch_t_policy_opts_out(self):
        cell = Cell(backend=SimulationBackend(seed=1), signalling="autosynch_t")
        assert cell.condition_manager.incremental is False

