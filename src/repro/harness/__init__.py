"""Experiment harness: saturation tests, repetition protocol and reporting.

The harness reproduces the measurement protocol of §6.1: saturation tests
(threads do nothing but call monitor operations), repeated several times with
the best and worst repetitions discarded and the rest averaged.

Because a Python wall-clock comparison is muddied by the GIL, every run also
records the backend and monitor counters (context switches, predicate
evaluations, signals, ...), and a simple cost model turns the simulation
backend's exact counts into a *modelled runtime* whose shape can be compared
with the paper's runtime figures.  The :mod:`repro.harness.cost_model`
module docstring gives the substitution rationale.
"""

from repro.harness.results import (
    ExperimentSeries,
    MeasurementPoint,
    RunResult,
    aggregate_runs,
    series_equal,
)
from repro.harness.runner import ExperimentRunner, RunConfig, run_point
from repro.harness.saturation import run_workload
from repro.harness.report import format_series_table, format_table, series_to_rows
from repro.harness.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.harness.export import (
    series_fingerprint,
    series_to_csv,
    series_to_dict,
    write_series_csv,
    write_series_json,
)
from repro.harness.execution import (
    Executor,
    FrozenMapping,
    RunCell,
    available_executors,
    create_executor,
    describe_executor,
    enumerate_cells,
    execute_cell,
    merge_cell_results,
    register_executor,
)

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Executor",
    "ExperimentRunner",
    "ExperimentSeries",
    "FrozenMapping",
    "MeasurementPoint",
    "RunCell",
    "RunConfig",
    "RunResult",
    "aggregate_runs",
    "available_executors",
    "create_executor",
    "describe_executor",
    "enumerate_cells",
    "execute_cell",
    "format_series_table",
    "format_table",
    "merge_cell_results",
    "register_executor",
    "run_point",
    "run_workload",
    "series_equal",
    "series_fingerprint",
    "series_to_csv",
    "series_to_dict",
    "series_to_rows",
    "write_series_csv",
    "write_series_json",
]
