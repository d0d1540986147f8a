"""Unit tests for run results, aggregation, the cost model and reporting."""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness import (
    CostModel,
    DEFAULT_COST_MODEL,
    ExperimentSeries,
    MeasurementPoint,
    RunResult,
    aggregate_runs,
    format_series_table,
    format_table,
    series_to_rows,
)
from repro.harness.profiling import (
    breakdown_rows,
    cpu_usage_breakdown,
    modelled_breakdown_from_counters,
)


def make_run(wall_time=1.0, context_switches=100, evaluations=50, threads=4, **overrides):
    backend_metrics = {
        "context_switches": context_switches,
        "notified_threads": overrides.pop("notified_threads", 10),
    }
    monitor_stats = {
        "entries": overrides.pop("entries", 200),
        "predicate_evaluations": evaluations,
        "signals_sent": overrides.pop("signals_sent", 20),
        "signal_alls_sent": overrides.pop("signal_alls_sent", 0),
        "waits": overrides.pop("waits", 30),
        "relay_signal_calls": overrides.pop("relay_signal_calls", 40),
        "spurious_wakeups": overrides.pop("spurious_wakeups", 2),
        "wakeups": overrides.pop("wakeups", 28),
    }
    return RunResult(
        problem=overrides.pop("problem", "bounded_buffer"),
        mechanism=overrides.pop("mechanism", "autosynch"),
        backend=overrides.pop("backend", "simulation"),
        threads=threads,
        wall_time=wall_time,
        operations=overrides.pop("operations", 1000),
        backend_metrics=backend_metrics,
        monitor_stats=monitor_stats,
    )


class TestRunResult:
    def test_convenience_properties(self):
        run = make_run(context_switches=123, evaluations=7, signals_sent=4, signal_alls_sent=2)
        assert run.context_switches == 123
        assert run.predicate_evaluations == 7
        assert run.signals == 6

    def test_metric_lookup(self):
        run = make_run(wall_time=2.5)
        assert run.metric("wall_time") == 2.5
        assert run.metric("context_switches") == 100
        assert run.metric("waits") == 30
        with pytest.raises(KeyError):
            run.metric("nonexistent")

    def test_modelled_runtime_is_positive_and_scales(self):
        small = make_run(context_switches=10)
        large = make_run(context_switches=10_000)
        assert 0 < small.modelled_runtime() < large.modelled_runtime()


class TestCostModel:
    def test_default_model_weights_context_switches_most(self):
        model = DEFAULT_COST_MODEL
        assert model.context_switch_us > model.predicate_evaluation_us

    def test_modelled_runtime_formula(self):
        model = CostModel(
            context_switch_us=1.0,
            monitor_entry_us=0.0,
            predicate_evaluation_us=0.0,
            signal_us=0.0,
            wait_us=0.0,
        )
        run = make_run(context_switches=2_000_000)
        assert run.modelled_runtime(model) == pytest.approx(2.0)

    def test_custom_model_changes_result(self):
        run = make_run()
        cheap = CostModel(context_switch_us=0.1)
        expensive = CostModel(context_switch_us=100.0)
        assert run.modelled_runtime(cheap) < run.modelled_runtime(expensive)


class TestAggregation:
    def test_empty_aggregation_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

    def test_mismatched_configurations_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([make_run(), make_run(mechanism="explicit")])

    def test_drop_extremes_follows_paper_protocol(self):
        runs = [make_run(wall_time=t) for t in (5.0, 1.0, 2.0, 3.0, 100.0)]
        point = aggregate_runs(runs, drop_extremes=True)
        # Best (1.0) and worst (100.0) dropped; mean of 2, 3, 5.
        assert point.wall_time == pytest.approx((2.0 + 3.0 + 5.0) / 3)
        assert point.repetitions == 3

    def test_extremes_kept_when_disabled(self):
        runs = [make_run(wall_time=t) for t in (1.0, 2.0, 3.0)]
        point = aggregate_runs(runs, drop_extremes=False)
        assert point.wall_time == pytest.approx(2.0)
        assert point.repetitions == 3

    def test_fewer_than_three_runs_keeps_everything(self):
        runs = [make_run(wall_time=t) for t in (1.0, 9.0)]
        point = aggregate_runs(runs, drop_extremes=True)
        assert point.wall_time == pytest.approx(5.0)

    def test_extra_counters_are_averaged(self):
        runs = [make_run(spurious_wakeups=2), make_run(spurious_wakeups=4)]
        point = aggregate_runs(runs, drop_extremes=False)
        assert point.extra["spurious_wakeups"] == pytest.approx(3.0)
        assert point.extra["backend_context_switches"] == pytest.approx(100.0)

    def test_point_metric_lookup(self):
        point = aggregate_runs([make_run()], drop_extremes=False)
        assert point.metric("context_switches") == 100
        assert point.metric("waits") == 30
        with pytest.raises(KeyError):
            point.metric("unknown_metric")


class TestSeries:
    def build_series(self):
        series = ExperimentSeries(name="demo", x_label="# threads", backend="simulation")
        for mechanism, factor in (("explicit", 3.0), ("autosynch", 1.0)):
            for threads in (2, 8):
                run = make_run(
                    wall_time=factor * threads, mechanism=mechanism, threads=threads
                )
                series.add(aggregate_runs([run], drop_extremes=False))
        return series

    def test_mechanisms_and_x_values(self):
        series = self.build_series()
        assert list(series.mechanisms()) == ["explicit", "autosynch"]
        assert series.x_values() == [2, 8]

    def test_point_lookup(self):
        series = self.build_series()
        point = series.point_for("explicit", 8)
        assert point is not None and point.wall_time == pytest.approx(24.0)
        assert series.point_for("explicit", 99) is None

    def test_series_to_rows(self):
        rows = series_to_rows(self.build_series(), "wall_time")
        assert rows[0][0] == 2
        assert rows[1][0] == 8
        assert len(rows[0]) == 3

    def test_format_series_table(self):
        text = format_series_table(self.build_series(), "wall_time", title="demo table")
        assert "demo table" in text
        assert "# threads" in text
        assert "explicit" in text and "autosynch" in text


class TestMeasurementPoint:
    def test_canonical_items_without_timing_drop_only_wall_time(self):
        point = MeasurementPoint(
            problem="demo",
            mechanism="autosynch",
            backend="simulation",
            threads=4,
            repetitions=3,
            wall_time=0.7,
            modelled_runtime=1.5,
            context_switches=100.0,
            predicate_evaluations=7.0,
            signals=3.0,
            extra={"spurious_wakeups": 2.0, "modelled_await_time": 0.25},
        )
        timed = point.canonical_items()
        untimed = point.canonical_items(include_timing=False)
        assert timed["wall_time"] == 0.7
        assert "wall_time" not in untimed
        assert untimed["extra"] == {"modelled_await_time": 0.25, "spurious_wakeups": 2.0}
        assert {key: value for key, value in timed.items() if key != "wall_time"} == untimed


class TestFormatTable:
    def test_alignment_and_headers(self):
        text = format_table(["name", "value"], [["alpha", 1], ["b", 123456]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "123,456" in text

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["one"], [["a", "b"]])

    def test_float_formatting(self):
        text = format_table(["x"], [[0.000123], [1234567.0]])
        assert "1.230e-04" in text
        assert "1.235e+06" in text


class TestProfilingBreakdown:
    def test_breakdown_is_modelled_from_counters(self):
        run = make_run()
        breakdown = cpu_usage_breakdown(run)
        assert breakdown.total > 0
        assert breakdown.relay_signal_time > 0

    def test_time_keys_in_stats_do_not_change_breakdown(self):
        run = make_run()
        stats = dict(run.monitor_stats)
        stats.update({"await_time": 0.5, "lock_time": 0.1, "relay_signal_time": 0.2,
                      "tag_manager_time": 0.05})
        timed = dataclasses.replace(run, monitor_stats=stats)
        assert cpu_usage_breakdown(timed) == cpu_usage_breakdown(run)

    def test_share_sums_to_one(self):
        breakdown = cpu_usage_breakdown(make_run())
        total_share = sum(
            breakdown.share(bucket)
            for bucket in ("await", "lock", "relay_signal", "tag_manager", "others")
        )
        assert total_share == pytest.approx(1.0)

    def test_breakdown_rows_shape(self):
        rows = breakdown_rows([cpu_usage_breakdown(make_run())])
        assert len(rows) == 1
        # mechanism + 5 buckets x (value, percent) + total
        assert len(rows[0]) == 1 + 5 * 2 + 1

    def test_modelled_breakdown_from_counters_direct(self):
        breakdown = modelled_breakdown_from_counters(
            "autosynch", {"waits": 10, "predicate_evaluations": 100}, {"context_switches": 50}
        )
        assert breakdown.mechanism == "autosynch"
        assert breakdown.await_time > 0
