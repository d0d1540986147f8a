"""Unit tests for the import-time @autosynch decorator and waituntil stub."""

from __future__ import annotations

import threading

import pytest

from repro.core import AutoSynchMonitor
from repro.preprocessor import PreprocessorError, autosynch, waituntil
from repro.runtime import SimulationBackend


@autosynch
class Mailbox:
    """One-slot mailbox written in the paper's surface syntax."""

    def __init__(self):
        self.letter = None

    def post(self, letter):
        waituntil(self.letter is None)
        self.letter = letter

    def collect(self):
        waituntil(self.letter is not None)
        letter = self.letter
        self.letter = None
        return letter


@autosynch(signalling="autosynch_t")
class CountingGate:
    def __init__(self, threshold):
        self.threshold = threshold
        self.arrivals = 0

    def arrive(self):
        self.arrivals += 1

    def pass_gate(self):
        waituntil(self.arrivals >= self.threshold)
        return self.arrivals


class TestDecoratedClasses:
    def test_decorated_class_is_a_monitor(self):
        assert issubclass(Mailbox, AutoSynchMonitor)

    def test_basic_behaviour(self):
        box = Mailbox()
        box.post("hello")
        assert box.collect() == "hello"

    def test_generated_source_is_attached(self):
        assert "wait_until" in Mailbox.__autosynch_source__
        assert "waituntil" not in Mailbox.__autosynch_source__.replace("wait_until", "")

    def test_metadata_preserved(self):
        assert Mailbox.__doc__ == "One-slot mailbox written in the paper's surface syntax."
        assert Mailbox.__qualname__ == "Mailbox"
        assert Mailbox.__module__ == __name__

    def test_decorator_options_are_applied(self):
        gate = CountingGate(2)
        assert gate.signalling == "autosynch_t"

    def test_locals_are_captured(self):
        gate = CountingGate(1)
        gate.arrive()
        assert gate.pass_gate() == 1

    def test_blocking_works_with_real_threads(self):
        box = Mailbox()
        received = []

        def reader():
            received.append(box.collect())

        thread = threading.Thread(target=reader)
        thread.start()
        box.post("letter")
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert received == ["letter"]

    def test_decorated_class_works_on_simulation_backend(self):
        backend = SimulationBackend(seed=4)

        @autosynch(backend=None)
        class Local:
            def __init__(self):
                self.done = False

            def finish(self):
                self.done = True

            def wait_done(self):
                waituntil(self.done)

        # Non-literal options (like a backend object) are applied after
        # transformation through the options dictionary.
        Local._autosynch_options = {"backend": backend}
        monitor = Local()

        def waiter():
            monitor.wait_done()

        def finisher():
            monitor.finish()

        backend.run([waiter, finisher], ["waiter", "finisher"])
        assert monitor.done

    def test_stats_are_available(self):
        box = Mailbox()
        box.post("x")
        box.collect()
        assert box.stats.entries == 2


class TestDecoratorErrors:
    def test_decorator_with_positional_and_options_is_rejected(self):
        with pytest.raises(TypeError):
            autosynch(Mailbox, signalling="baseline")

    def test_waituntil_outside_autosynch_class_raises(self):
        with pytest.raises(PreprocessorError):
            waituntil(True)

    def test_waituntil_in_plain_function_raises_at_runtime(self):
        def plain():
            waituntil(1 < 2)

        with pytest.raises(PreprocessorError):
            plain()
