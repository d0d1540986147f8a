"""Unit tests for the monitor's event counters."""

from __future__ import annotations

from dataclasses import fields

import repro.core
from repro.core import instrumentation
from repro.core.instrumentation import MonitorStats


class TestMonitorStats:
    def test_counters_start_at_zero(self):
        stats = MonitorStats()
        assert stats.entries == 0
        assert stats.predicate_evaluations == 0

    def test_snapshot_contains_all_counters(self):
        stats = MonitorStats()
        stats.entries = 3
        stats.relay_signal_calls = 2
        snapshot = stats.snapshot()
        assert snapshot["entries"] == 3
        assert snapshot["relay_signal_calls"] == 2
        assert all(type(value) is int for value in snapshot.values())

    def test_reset_zeroes_every_counter(self):
        stats = MonitorStats()
        stats.entries = 5
        stats.tracked_writes = 7
        stats.reset()
        assert set(stats.snapshot().values()) == {0}

    def test_merge_accumulates(self):
        first = MonitorStats()
        second = MonitorStats()
        first.entries = 2
        first.waits = 1
        second.entries = 3
        second.waits = 4
        first.merge(second)
        assert first.entries == 5
        assert first.waits == 5

    def test_merge_does_not_modify_other(self):
        first = MonitorStats()
        second = MonitorStats()
        second.entries = 3
        first.merge(second)
        assert second.entries == 3

    def test_merge_accumulates_every_counter(self):
        first = MonitorStats()
        second = MonitorStats()
        names = [f.name for f in fields(MonitorStats)]
        for index, name in enumerate(names, start=1):
            setattr(first, name, index)
            setattr(second, name, 10 * index)
        first.merge(second)
        assert first.snapshot() == {
            name: 11 * index for index, name in enumerate(names, start=1)
        }


class TestCountersOnly:
    def test_every_field_is_an_integer_counter(self):
        for f in fields(MonitorStats):
            assert f.type in (int, "int"), f.name
            assert f.default == 0, f.name
            assert not f.name.endswith("_time"), f.name

    def test_no_wall_clock_buckets(self):
        stats = MonitorStats()
        assert not hasattr(stats, "profiling")
        assert not hasattr(stats, "time_bucket")

    def test_core_exports_no_stopwatch(self):
        assert "MonitorStats" in repro.core.__all__
        assert "Stopwatch" not in repro.core.__all__
        assert not hasattr(instrumentation, "Stopwatch")
