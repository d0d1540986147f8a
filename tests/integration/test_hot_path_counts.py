"""Exact counters of the relay and park hot paths, pinned.

The relay pass, the threshold-heap search and template binds are tuned for
host time; none of that may change what the monitor does.  Every counter of
a saturation run (the paper's §6.1 test, as ``perfbench``'s saturation-sim
round runs it) and of a reduced ``fifo_semaphore`` service run is pinned
here, monitor stats and backend metrics alike.
"""

from __future__ import annotations

from repro.harness.saturation import run_workload
from repro.harness.service_load import run_service_load
from repro.problems.registry import get_problem
from repro.runtime.asyncio_backend import AsyncioBackend
from repro.runtime.simulation import SimulationBackend

SATURATION_STATS = {
    "compiled_evaluations": 13305,
    "entries": 7963,
    "eval_context_allocations": 1,
    "exhaustive_checks": 0,
    "faults_injected": 0,
    "incremental_demotions": 0,
    "interpreted_evaluations": 0,
    "predicate_evaluations": 13305,
    "predicate_quarantines": 0,
    "predicate_registrations": 445,
    "predicate_reuses": 925,
    "relay_entries_skipped": 0,
    "relay_signal_calls": 10634,
    "self_heal_recoveries": 0,
    "shared_read_cache_hits": 2682,
    "signal_alls_sent": 0,
    "signals_sent": 2671,
    "spurious_wakeups": 1301,
    "tag_hash_lookups": 0,
    "tag_heap_checks": 11265,
    "tag_insertions": 1289,
    "tag_removals": 1289,
    "template_globalizations": 1370,
    "tracked_writes": 15931,
    "wait_timeouts": 0,
    "waits": 2671,
    "wakeups": 2671,
}

SATURATION_METRICS = {
    "condition_waits": 2671,
    "context_switches": 10490,
    "lock_acquisitions": 7963,
    "lock_contentions": 7802,
    "notified_threads": 2671,
    "notifies": 2671,
    "notify_alls": 0,
    "threads_spawned": 17,
}

SERVICE_STATS = {
    "eval_context_allocations": 1,
    "predicate_evaluations": 1673,
    "relay_entries_skipped": 535,
    "relay_signal_calls": 1736,
    "signals_sent": 536,
    "spurious_wakeups": 0,
    "template_globalizations": 536,
    "waits": 536,
    "wakeups": 536,
}

SERVICE_METRICS = {
    "condition_waits": 536,
    "context_switches": 536,
    "lock_acquisitions": 1736,
    "lock_contentions": 0,
    "notified_threads": 536,
    "notifies": 536,
    "notify_alls": 0,
    "threads_spawned": 601,
}


def test_saturation_run_counts():
    result = run_workload(
        get_problem("parameterized_bounded_buffer"),
        "autosynch",
        SimulationBackend(seed=1),
        threads=16,
        total_ops=4000,
        seed=1,
        verify=True,
    )
    assert result.monitor_stats == SATURATION_STATS
    assert result.backend_metrics == SATURATION_METRICS


def test_fifo_service_run_counts():
    backend = AsyncioBackend()
    result = run_service_load(600, scenario="fifo_semaphore", window=64, backend=backend)
    assert result.stats == SERVICE_STATS
    assert backend.metrics.snapshot() == SERVICE_METRICS
