"""Table 1 support: a CPU-usage-style breakdown per signalling mechanism.

The paper profiles the round-robin access pattern with YourKit and reports,
per mechanism, how much CPU time is spent in ``await``, lock handling,
``relaySignal`` and tag management.  Here the same breakdown is modelled
from the monitor's exact event counters (:class:`~repro.core.MonitorStats`)
and the backend's metrics through the cost model, on every backend; no
clock is read.  The model preserves the paper's headline observation
(tagging removes ~95% of the relaySignal cost for a small tag management
overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.harness.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.harness.results import RunResult

__all__ = [
    "UsageBreakdown",
    "cpu_usage_breakdown",
    "modelled_breakdown_from_counters",
    "series_usage_breakdowns",
    "breakdown_rows",
]

#: Column order of Table 1.
BUCKETS = ("await", "lock", "relay_signal", "tag_manager", "others")


@dataclass(frozen=True)
class UsageBreakdown:
    """Per-mechanism time split, in modelled seconds."""

    mechanism: str
    await_time: float
    lock_time: float
    relay_signal_time: float
    tag_manager_time: float
    others_time: float

    @property
    def total(self) -> float:
        return (
            self.await_time
            + self.lock_time
            + self.relay_signal_time
            + self.tag_manager_time
            + self.others_time
        )

    def share(self, bucket: str) -> float:
        """Fraction of the total spent in *bucket* (0 when the total is 0)."""
        value = getattr(self, f"{bucket}_time")
        return value / self.total if self.total else 0.0


def modelled_breakdown_from_counters(
    mechanism: str,
    monitor_stats: Mapping[str, float],
    backend_metrics: Mapping[str, float],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> UsageBreakdown:
    """Build a Table-1-style breakdown from raw counters using the cost model."""
    stats = monitor_stats
    metrics = backend_metrics
    await_time = (
        stats.get("waits", 0) * cost_model.wait_us
        + metrics.get("context_switches", 0) * cost_model.context_switch_us
    ) / 1e6
    lock_time = stats.get("entries", 0) * cost_model.monitor_entry_us / 1e6
    relay = (
        stats.get("predicate_evaluations", 0) * cost_model.predicate_evaluation_us
        + stats.get("relay_signal_calls", 0) * cost_model.signal_us
        + stats.get("tag_hash_lookups", 0) * cost_model.predicate_evaluation_us
        + stats.get("tag_heap_checks", 0) * cost_model.predicate_evaluation_us
        + stats.get("exhaustive_checks", 0) * cost_model.predicate_evaluation_us
    ) / 1e6
    tag = (
        (stats.get("tag_insertions", 0) + stats.get("tag_removals", 0))
        * cost_model.predicate_evaluation_us
    ) / 1e6
    others = (
        stats.get("signals_sent", 0) + stats.get("signal_alls_sent", 0)
    ) * cost_model.signal_us / 1e6
    return UsageBreakdown(mechanism, await_time, lock_time, relay, tag, others)


def cpu_usage_breakdown(
    result: RunResult, cost_model: CostModel = DEFAULT_COST_MODEL
) -> UsageBreakdown:
    """Build the Table-1-style breakdown for one run from its counters."""
    return modelled_breakdown_from_counters(
        result.mechanism, result.monitor_stats, result.backend_metrics, cost_model
    )


def series_usage_breakdowns(
    series,
    threads: Optional[int] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> List[UsageBreakdown]:
    """One modelled :class:`UsageBreakdown` per mechanism of a series.

    Works from the *aggregated* points (whose ``extra`` carries the mean of
    every raw monitor counter and, prefixed with ``backend_``, every
    backend metric), not from raw :class:`RunResult` values — so breakdowns
    can be built after the executor merge, no matter which process produced
    the underlying runs.  ``threads`` selects the x value to break down
    (default: the largest in the series, matching the paper's Table 1).
    """
    if threads is None:
        xs = series.x_values()
        if not xs:
            return []
        threads = xs[-1]
    breakdowns: List[UsageBreakdown] = []
    for mechanism in series.mechanisms():
        point = series.point_for(mechanism, threads)
        if point is None:
            continue
        monitor_stats = {
            key: value
            for key, value in point.extra.items()
            if not key.startswith("backend_")
        }
        backend_metrics = {
            key[len("backend_"):]: value
            for key, value in point.extra.items()
            if key.startswith("backend_")
        }
        breakdowns.append(
            modelled_breakdown_from_counters(
                mechanism, monitor_stats, backend_metrics, cost_model
            )
        )
    return breakdowns


def breakdown_rows(
    breakdowns: Sequence[UsageBreakdown],
) -> List[List[object]]:
    """Rows matching Table 1: time and percentage per bucket, plus the total."""
    rows: List[List[object]] = []
    for breakdown in breakdowns:
        row: List[object] = [breakdown.mechanism]
        for bucket in BUCKETS:
            value = getattr(breakdown, f"{bucket}_time")
            row.append(value)
            row.append(f"{100.0 * breakdown.share(bucket):.1f}%")
        row.append(breakdown.total)
        rows.append(row)
    return rows
