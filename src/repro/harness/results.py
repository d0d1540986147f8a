"""Result records for saturation runs and their aggregation.

The aggregation follows §6.1 of the paper: every configuration is run
several times, the best and the worst repetition are discarded, and the
remaining repetitions are averaged.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.harness.cost_model import CostModel, DEFAULT_COST_MODEL

__all__ = [
    "RunResult",
    "MeasurementPoint",
    "ExperimentSeries",
    "aggregate_runs",
    "mechanism_label",
    "series_equal",
]


def series_equal(
    first: "ExperimentSeries",
    second: "ExperimentSeries",
    include_timing: bool = False,
) -> bool:
    """Whether two series carry identical content.

    By default measured wall-clock quantities are excluded (see
    :meth:`MeasurementPoint.canonical_items`), so this is the equality the
    executor subsystem guarantees: the same config produces an equal series
    no matter which executor ran it or with how many jobs.
    """
    if (first.name, first.x_label, first.backend) != (
        second.name,
        second.x_label,
        second.backend,
    ):
        return False
    if tuple(first.mechanisms()) != tuple(second.mechanisms()):
        return False
    for mechanism in first.mechanisms():
        a_points = first.points[mechanism]
        b_points = second.points[mechanism]
        if len(a_points) != len(b_points):
            return False
        for a, b in zip(a_points, b_points):
            if a.canonical_items(include_timing) != b.canonical_items(include_timing):
                return False
    return True


def mechanism_label(mechanism: str) -> str:
    """Human-readable label for a mechanism name.

    Registered signalling policies answer through ``policy.describe()``;
    ``"explicit"`` (not a policy) and unknown names get sensible fallbacks,
    so reports keep working for arbitrary mechanism strings.
    """
    if mechanism == "explicit":
        return "hand-written explicit-signal monitor"
    from repro.core.signalling import describe_policy

    try:
        return describe_policy(mechanism)
    except ValueError:
        return mechanism


@dataclass(frozen=True)
class RunResult:
    """Raw measurements from one saturation run."""

    problem: str
    mechanism: str
    backend: str
    threads: int
    wall_time: float
    operations: int
    backend_metrics: Mapping[str, float]
    monitor_stats: Mapping[str, float]

    @property
    def context_switches(self) -> float:
        return self.backend_metrics.get("context_switches", 0)

    @property
    def predicate_evaluations(self) -> float:
        return self.monitor_stats.get("predicate_evaluations", 0)

    @property
    def signals(self) -> float:
        return self.monitor_stats.get("signals_sent", 0) + self.monitor_stats.get(
            "signal_alls_sent", 0
        )

    def modelled_runtime(self, cost_model: CostModel = DEFAULT_COST_MODEL) -> float:
        """Runtime predicted by the cost model from the exact event counts."""
        return cost_model.modelled_runtime_seconds(self.backend_metrics, self.monitor_stats)

    def metric(self, name: str, cost_model: CostModel = DEFAULT_COST_MODEL) -> float:
        """Fetch a metric by name (used by the generic reporting code)."""
        if name == "wall_time":
            return self.wall_time
        if name == "modelled_runtime":
            return self.modelled_runtime(cost_model)
        if name == "context_switches":
            return self.context_switches
        if name == "predicate_evaluations":
            return self.predicate_evaluations
        if name == "signals":
            return self.signals
        if name in self.backend_metrics:
            return float(self.backend_metrics[name])
        if name in self.monitor_stats:
            return float(self.monitor_stats[name])
        raise KeyError(f"unknown metric {name!r}")


@dataclass(frozen=True)
class MeasurementPoint:
    """Aggregated measurements for one (mechanism, threads) configuration."""

    problem: str
    mechanism: str
    backend: str
    threads: int
    repetitions: int
    wall_time: float
    modelled_runtime: float
    context_switches: float
    predicate_evaluations: float
    signals: float
    extra: Dict[str, float] = field(default_factory=dict)

    def metric(self, name: str) -> float:
        if hasattr(self, name) and name != "extra":
            value = getattr(self, name)
            if isinstance(value, (int, float)):
                return float(value)
        if name in self.extra:
            return self.extra[name]
        raise KeyError(f"unknown metric {name!r}")

    def canonical_items(self, include_timing: bool = True) -> Dict[str, object]:
        """The point's content as a plain, deterministically-ordered dict.

        With ``include_timing=False`` every measured wall-clock quantity —
        ``wall_time`` and any ``*_time`` extra (profiling buckets, evaluation
        timings) — is omitted, leaving only fields that are exact
        functions of the run's event counts.  Two runs of the same config
        agree on that subset bit-for-bit regardless of executor, job count
        or machine load, which is what the serial-vs-process equivalence
        tests and :func:`~repro.harness.export.series_fingerprint` compare.
        """
        items: Dict[str, object] = {
            "problem": self.problem,
            "mechanism": self.mechanism,
            "backend": self.backend,
            "threads": self.threads,
            "repetitions": self.repetitions,
            "modelled_runtime": self.modelled_runtime,
            "context_switches": self.context_switches,
            "predicate_evaluations": self.predicate_evaluations,
            "signals": self.signals,
        }
        if include_timing:
            items["wall_time"] = self.wall_time
        extra = {
            key: value
            for key, value in sorted(self.extra.items())
            if include_timing or not key.endswith("_time")
        }
        items["extra"] = extra
        return items


@dataclass
class ExperimentSeries:
    """One figure's worth of data: points per mechanism over the x-axis."""

    name: str
    x_label: str
    backend: str
    points: Dict[str, List[MeasurementPoint]] = field(default_factory=dict)

    def add(self, point: MeasurementPoint) -> None:
        self.points.setdefault(point.mechanism, []).append(point)

    def mechanisms(self) -> Sequence[str]:
        return tuple(self.points)

    def label_for(self, mechanism: str) -> str:
        """Human-readable label of one of the series' mechanisms."""
        return mechanism_label(mechanism)

    def x_values(self) -> List[int]:
        values: List[int] = []
        for series in self.points.values():
            for point in series:
                if point.threads not in values:
                    values.append(point.threads)
        return sorted(values)

    def point_for(self, mechanism: str, threads: int) -> Optional[MeasurementPoint]:
        for point in self.points.get(mechanism, ()):
            if point.threads == threads:
                return point
        return None


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def aggregate_runs(
    runs: Sequence[RunResult],
    drop_extremes: bool = True,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    rank_metric: str = "wall_time",
) -> MeasurementPoint:
    """Aggregate repetitions of the same configuration into one point.

    With ``drop_extremes`` (the paper's protocol) the best and worst
    repetition according to *rank_metric* are removed before averaging,
    provided at least three repetitions are available.
    """
    if not runs:
        raise ValueError("cannot aggregate an empty list of runs")
    first = runs[0]
    for run in runs:
        if (run.problem, run.mechanism, run.backend, run.threads) != (
            first.problem,
            first.mechanism,
            first.backend,
            first.threads,
        ):
            raise ValueError("all runs in an aggregate must share the same configuration")

    kept = list(runs)
    if drop_extremes and len(kept) >= 3:
        kept.sort(key=lambda run: run.metric(rank_metric, cost_model))
        kept = kept[1:-1]

    # Keep the mean of every raw counter so downstream reports (e.g. the
    # Table 1 CPU-usage breakdown) can be built from aggregated points.
    monitor_keys = sorted({key for run in kept for key in run.monitor_stats})
    backend_keys = sorted({key for run in kept for key in run.backend_metrics})
    extra = {
        key: _mean([run.monitor_stats.get(key, 0.0) for run in kept]) for key in monitor_keys
    }
    extra.update(
        {
            f"backend_{key}": _mean([run.backend_metrics.get(key, 0.0) for run in kept])
            for key in backend_keys
        }
    )
    extra["notified_threads"] = _mean(
        [run.backend_metrics.get("notified_threads", 0.0) for run in kept]
    )

    return MeasurementPoint(
        problem=first.problem,
        mechanism=first.mechanism,
        backend=first.backend,
        threads=first.threads,
        repetitions=len(kept),
        wall_time=_mean([run.wall_time for run in kept]),
        modelled_runtime=_mean([run.modelled_runtime(cost_model) for run in kept]),
        context_switches=_mean([run.context_switches for run in kept]),
        predicate_evaluations=_mean([run.predicate_evaluations for run in kept]),
        signals=_mean([run.signals for run in kept]),
        extra=extra,
    )
