"""The sustained-load service driver at test scale (fast; no benchmarking).

The real measurements live in ``benchmarks/test_service_throughput.py``;
this suite pins the driver's *correctness* contract at ~50 waiters so the
tier-1 run covers it: conservation of admission slots, the latency-sample
accounting (first ``window`` admissions are stampless), pacing, both
supported scenarios, and the relay-mode comparison harness.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.core import async_driver
from repro.harness.service_load import (
    ServiceLoadResult,
    measure_relay_modes,
    percentile,
    run_service_load,
)


class TestRunServiceLoad:
    @pytest.mark.parametrize("scenario", ["resource_pool", "fifo_semaphore"])
    def test_small_run_conserves_and_measures(self, scenario):
        result = run_service_load(50, scenario=scenario, window=8)
        assert isinstance(result, ServiceLoadResult)
        assert result.operations == 100  # 50 admissions + 50 releases
        assert result.latency_samples == 42  # first 8 ride the free window
        assert result.duration_seconds > 0
        assert result.ops_per_sec > 0
        assert result.cpu_count >= 1
        assert result.ops_per_sec_per_core == pytest.approx(
            result.ops_per_sec / result.cpu_count
        )
        assert 0 <= result.p50_wakeup_seconds <= result.p99_wakeup_seconds
        assert result.stats["eval_context_allocations"] <= 2

    def test_window_larger_than_waiters(self):
        # Everyone admits immediately: no release is ever waited on.
        result = run_service_load(5, window=64)
        assert result.latency_samples == 0
        assert result.p99_wakeup_seconds == 0.0

    def test_pacing_slows_the_drain(self):
        fast = run_service_load(24, window=4)
        paced = run_service_load(24, window=4, target_rate=100.0)
        # 20 paced releases at 100/s add >= 0.2s of sleep.
        assert paced.duration_seconds > fast.duration_seconds

    def test_mechanism_is_honoured(self):
        result = run_service_load(30, window=4, mechanism="relay_fifo")
        assert result.mechanism == "relay_fifo"
        assert result.operations == 60

    def test_unsupported_scenario_rejected(self):
        with pytest.raises(ValueError, match="resource_pool"):
            run_service_load(10, scenario="barrier")

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_service_load(0)
        with pytest.raises(ValueError):
            run_service_load(10, window=0)

    def test_gc_collections_are_recorded(self):
        result = run_service_load(40, window=4)
        assert len(result.gc_collections) == len(gc.get_stats())
        assert all(count >= 0 for count in result.gc_collections)
        assert result.as_record()["gc_collections"] == list(result.gc_collections)


class TestWaiterFootprint:
    """What one parked coroutine waiter keeps alive.

    Every full collection of the cyclic GC walks every parked waiter, so
    the service tier's GC time grows with this count.  The count is the
    growth of ``gc.get_objects()`` per parked waiter at the signaller's
    first release, when all but ``window`` waiters are parked on
    ``fifo_semaphore`` (one ticket predicate each).  Two sizes are
    measured and differenced so fixed costs cancel.  Frame objects are
    left out: Python 3.10 keeps one per suspended coroutine, later
    versions keep the frame inside the coroutine.
    """

    #: Tracked objects per parked waiter; 34 before the waiters were slimmed
    #: (six nested coroutines, a gather callback Context, a future wrapper
    #: and an eagerly built DNF per bound predicate), 24 after.
    BOUND = 27

    @staticmethod
    def _tracked_at_first_release(monkeypatch, waiters: int) -> int:
        seen = []
        run_action = async_driver.run_action

        def counting_run_action(monitor, action, **local_values):
            # A plain function returning the coroutine: no extra frame
            # per waiter in what is being counted.
            if action == "release" and not seen:
                gc.collect()
                seen.append(
                    sum(
                        1
                        for obj in gc.get_objects()
                        if type(obj) is not types.FrameType
                    )
                )
            return run_action(monitor, action, **local_values)

        with monkeypatch.context() as patch:
            patch.setattr(async_driver, "run_action", counting_run_action)
            run_service_load(waiters, scenario="fifo_semaphore", window=8)
        return seen[0]

    def test_tracked_objects_per_parked_waiter(self, monkeypatch):
        small = self._tracked_at_first_release(monkeypatch, 100)
        large = self._tracked_at_first_release(monkeypatch, 700)
        per_waiter = (large - small) / 600
        assert 10 <= per_waiter <= self.BOUND, per_waiter


class TestMeasureRelayModes:
    def test_incremental_beats_exhaustive(self):
        record = measure_relay_modes(320, passes=5)
        assert record["predicates"] == 20
        assert record["incremental"]["evals_per_pass"] == 1
        assert record["exhaustive"]["evals_per_pass"] == 20
        assert record["eval_ratio"] == 20.0

    def test_single_shard_floor(self):
        record = measure_relay_modes(3, passes=3)
        assert record["predicates"] == 1


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile(samples, 0.5) == 3.0  # round(0.5 * 3) == 2 -> ordered[2]
