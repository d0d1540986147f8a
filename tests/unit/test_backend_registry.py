"""The backend plugin registry and the ``Backend.now()`` time-unit contract.

Backend selection rides the shared :class:`~repro.core.plugin_registry.
PluginRegistry` idiom: names resolve through :mod:`repro.runtime.registry`,
unknown names raise ``ValueError`` listing the registered backends, and
construction funnels through :meth:`Backend.build` so ``seed`` /
``run_timeout`` reach the backends that understand them.

The time-unit contract — documented once on :meth:`Backend.now` — says:
``now()`` is monotonic during a run, its origin is arbitrary, and its unit
is the backend's ``time_unit`` classvar (wall-clock seconds on threading
and asyncio, scheduling steps under simulation).  Deadline arithmetic
everywhere is ``deadline = now() + timeout``, so a timed ``wait_until``
means the same thing on every backend in that backend's own units.
"""

from __future__ import annotations

import pytest

from repro.core import AutoSynchMonitor, WaitTimeout
from repro.harness.saturation import BACKENDS, make_backend
from repro.runtime import (
    AsyncioBackend,
    Backend,
    SimulationBackend,
    ThreadingBackend,
    available_backends,
    create_backend,
    describe_backend,
    get_backend,
    register_backend,
    unregister_backend,
)


class TestRegistry:
    def test_standard_backends_registered(self):
        assert available_backends()[:3] == ("simulation", "threading", "asyncio")

    def test_get_returns_classes(self):
        assert get_backend("simulation") is SimulationBackend
        assert get_backend("threading") is ThreadingBackend
        assert get_backend("asyncio") is AsyncioBackend

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("gevent")
        message = str(excinfo.value)
        assert "gevent" in message
        for name in available_backends():
            assert name in message

    def test_describe_is_nonempty_for_every_backend(self):
        for name in available_backends():
            assert describe_backend(name)

    def test_create_backend_forwards_seed_and_run_timeout(self):
        backend = create_backend("simulation", seed=42, run_timeout=3.5)
        assert isinstance(backend, SimulationBackend)

    def test_create_backend_ignores_knobs_without_meaning(self):
        # threading/asyncio have no seed or run timeout; build() drops them.
        assert isinstance(
            create_backend("threading", seed=9, run_timeout=1.0), ThreadingBackend
        )
        assert isinstance(
            create_backend("asyncio", seed=9, run_timeout=1.0), AsyncioBackend
        )

    def test_register_and_unregister_custom_backend(self):
        class NullBackend(ThreadingBackend):
            name = "null-test-backend"
            description = "throwaway backend for the registry test"

        register_backend(NullBackend)
        try:
            assert "null-test-backend" in available_backends()
            assert isinstance(create_backend("null-test-backend"), NullBackend)
        finally:
            unregister_backend("null-test-backend")
        assert "null-test-backend" not in available_backends()

    def test_duplicate_registration_raises_without_replace(self):
        # Re-registering the same class is idempotent; a *different* class
        # claiming a taken name is the accidental-shadowing error.
        class Impostor(ThreadingBackend):
            name = "simulation"

        with pytest.raises(ValueError):
            register_backend(Impostor)
        assert get_backend("simulation") is SimulationBackend

    def test_make_backend_goes_through_the_registry(self):
        assert isinstance(make_backend("asyncio"), AsyncioBackend)
        assert tuple(BACKENDS)[:3] == ("simulation", "threading", "asyncio")
        with pytest.raises(ValueError) as excinfo:
            make_backend("bogus")
        assert "bogus" in str(excinfo.value)


class _NeverReady(AutoSynchMonitor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.ready = False

    def await_ready(self, timeout):
        self.wait_until("ready", timeout=timeout)


class TestTimeUnitContract:
    def test_declared_units(self):
        assert Backend.time_unit == "seconds"
        assert ThreadingBackend.time_unit == "seconds"
        assert AsyncioBackend.time_unit == "seconds"
        assert SimulationBackend.time_unit == "steps"

    def test_threading_now_is_monotonic_seconds(self):
        backend = ThreadingBackend()
        first = backend.now()
        second = backend.now()
        assert second >= first
        assert second - first < 1.0  # two adjacent calls: sub-second apart

    def test_asyncio_now_is_monotonic_seconds(self):
        backend = AsyncioBackend()
        first = backend.now()
        second = backend.now()
        assert second >= first
        assert second - first < 1.0

    def test_simulation_now_counts_steps(self):
        backend = SimulationBackend(seed=0)
        observed = []

        def body():
            observed.append(backend.now())
            observed.append(backend.now())

        backend.run([body])
        assert observed[0] >= 0
        assert observed[0] <= observed[1]
        # Steps, not wall-clock: two adjacent reads are whole steps apart.
        assert observed[1] - observed[0] == int(observed[1] - observed[0])

    @pytest.mark.parametrize("name", ["threading", "asyncio"])
    def test_wait_timeout_deadline_in_seconds(self, name):
        """A timed wait_until on a seconds backend expires near the deadline
        (uniform ``deadline = now() + timeout`` arithmetic — no unit drift)."""
        backend = create_backend(name)
        monitor = _NeverReady(backend=backend)
        elapsed = []

        def body():
            # try/except, not pytest.raises: a with block has no coroutine
            # twin, and the asyncio backend hosts this body as its twin.
            started = backend.now()
            try:
                monitor.await_ready(timeout=0.2)
            except WaitTimeout:
                elapsed.append(backend.now() - started)

        backend.run([body])
        assert len(elapsed) == 1
        assert 0.2 <= elapsed[0] < 2.0
        assert monitor.stats.wait_timeouts == 1

    def test_wait_timeout_deadline_in_steps(self):
        backend = SimulationBackend(seed=0)
        monitor = _NeverReady(backend=backend)
        timed_out = []

        def body():
            try:
                monitor.await_ready(timeout=25)
            except WaitTimeout:
                timed_out.append(backend.now())

        backend.run([body])
        assert timed_out and timed_out[0] >= 25
        assert monitor.stats.wait_timeouts == 1
