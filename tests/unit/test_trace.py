"""Unit tests for signalling traces and the relay-invariance validation mode."""

from __future__ import annotations

import pytest

from repro.core import AutoSynchMonitor, ExplicitMonitor, Tracer
from repro.core.trace import TraceEvent
from repro.runtime import SimulationBackend


class TracedCell(AutoSynchMonitor):
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


class TestTracerBasics:
    def test_events_are_sequenced(self):
        tracer = Tracer()
        tracer.record("enter", "t1", detail="put")
        tracer.record("exit", "t1", detail="put")
        sequences = [event.sequence for event in tracer.events]
        assert sequences == sorted(sequences)
        assert len(sequences) == 2

    def test_count_and_of_kind(self):
        tracer = Tracer()
        tracer.record("signal", "t1", predicate="count > 0")
        tracer.record("signal", "t2", predicate="count > 1")
        tracer.record("wait", "t3", predicate="count > 2")
        assert tracer.count("signal") == 2
        assert tracer.count("wait") == 1
        assert [e.predicate for e in tracer.of_kind("signal")] == ["count > 0", "count > 1"]

    def test_summary(self):
        tracer = Tracer()
        tracer.record("enter", "t1")
        tracer.record("enter", "t2")
        tracer.record("exit", "t1")
        assert tracer.summary() == {"enter": 2, "exit": 1}

    def test_capacity_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.record("enter", f"t{index}")
        assert len(tracer.events) == 3
        assert tracer.dropped == 2
        assert tracer.events[0].thread == "t2"
        assert "earlier events dropped" in tracer.format()

    def test_format_filters_by_kind(self):
        tracer = Tracer()
        tracer.record("enter", "t1", detail="put")
        tracer.record("signal", "t1", predicate="value is None")
        text = tracer.format(kinds=["signal"])
        assert "signal" in text and "enter" not in text

    def test_clear(self):
        tracer = Tracer()
        tracer.record("enter", "t1")
        tracer.clear()
        assert tracer.events == ()
        assert tracer.summary() == {}

    def test_event_format_contains_fields(self):
        event = TraceEvent(sequence=7, kind="signal", thread="3", predicate="x > 1", detail="why")
        text = event.format()
        assert "#00007" in text and "signal" in text and "x > 1" in text and "why" in text


class TestMonitorTracing:
    def test_single_threaded_trace_records_entries_and_exits(self):
        tracer = Tracer()
        cell = TracedCell(tracer=tracer)
        cell.put(1)
        cell.take()
        assert tracer.count("enter") == 2
        assert tracer.count("exit") == 2
        details = [event.detail for event in tracer.of_kind("enter")]
        assert details == ["put", "take"]

    def test_blocking_trace_records_waits_and_signals(self):
        tracer = Tracer()
        backend = SimulationBackend(seed=2)
        cell = TracedCell(backend=backend, tracer=tracer, signalling="autosynch")

        def consumer():
            cell.take()

        def producer():
            cell.put(42)

        backend.run([consumer, producer], ["consumer", "producer"])
        assert tracer.count("wait") == 1
        assert tracer.count("signal") == 1
        assert tracer.count("wakeup") == 1
        # Signals record the canonical (globalized) predicate form.
        assert tracer.predicates_signalled() == ["value != None"]
        assert tracer.count("register") == 1

    def test_no_tracer_means_no_overhead_path(self):
        cell = TracedCell()
        cell.put(1)
        assert cell.tracer is None

    def test_explicit_monitor_tracing(self):
        class Gate(ExplicitMonitor):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.open = False
                self.opened = self.new_condition("opened")

            def release(self):
                self.open = True
                self.signal_all(self.opened)

        tracer = Tracer()
        gate = Gate(tracer=tracer)
        gate.release()
        assert tracer.count("signal_all") == 1
        assert tracer.of_kind("signal_all")[0].predicate == "opened"

    def test_baseline_trace_records_signal_all(self):
        tracer = Tracer()
        backend = SimulationBackend(seed=3)
        cell = TracedCell(backend=backend, tracer=tracer, signalling="baseline")

        def consumer():
            cell.take()

        def producer():
            cell.put("x")

        backend.run([consumer, producer], ["consumer", "producer"])
        assert tracer.count("signal_all") > 0


class TestValidationMode:
    def test_validation_passes_on_correct_workload(self):
        backend = SimulationBackend(seed=6)
        cell = TracedCell(backend=backend, signalling="autosynch", validate=True)
        results = []

        def consumer():
            results.append(cell.take())

        def producer():
            cell.put(9)

        backend.run([consumer, producer])
        assert results == [9]

    def test_validation_detects_a_missed_signal(self):
        """Sabotage the tag structures to prove the validator catches pruning bugs."""
        backend = SimulationBackend(seed=6)
        cell = TracedCell(backend=backend, signalling="autosynch", validate=True)
        from repro.core import MonitorError

        def consumer():
            cell.take()

        def producer():
            cell.put(5)

        async def saboteur():
            # Empty the tag index behind the condition manager's back so the
            # relay search can no longer find the waiting consumer.
            manager = cell.condition_manager
            if manager is not None:
                manager._indices.clear()
                manager._untagged.clear()
                manager._untagged_pending.clear()
                manager._untagged_by_name.clear()

        # Order matters: the consumer must wait first, then the saboteur runs,
        # then the producer's exit triggers relay + validation.
        with pytest.raises(MonitorError, match="relay invariance violated"):
            backend.run([consumer, saboteur, producer], ["consumer", "saboteur", "producer"])
