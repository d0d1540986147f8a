"""Shared helpers for the benchmark suite.

Each ``test_figXX_*`` module regenerates one figure or table of the paper:

* the ``*_point`` benchmarks time a single representative configuration per
  signalling mechanism, so ``pytest benchmarks/ --benchmark-only`` produces a
  comparison table whose ordering mirrors the paper's figure;
* the ``*_series`` benchmark runs the whole (quick-scale) sweep once and
  prints the series — the text equivalent of the figure — so the numbers the
  paper plots can be read straight from the benchmark run's output.

The simulation backend is used throughout: its context-switch and predicate
-evaluation counts are exact and GIL-independent, which is what makes the
shapes comparable to the paper (see the ``repro.harness.cost_model``
module docstring).
"""

from __future__ import annotations

import os

import pytest

from repro.harness.report import format_series_table
from repro.harness.runner import ExperimentRunner
from repro.harness.saturation import run_workload
from repro.problems import get_problem
from repro.runtime import SimulationBackend


def run_problem_once(problem_name, mechanism, threads, total_ops, seed=1, **params):
    """One saturation run on a fresh simulation backend (benchmark body)."""
    backend = SimulationBackend(seed=seed)
    return run_workload(
        get_problem(problem_name),
        mechanism,
        backend,
        threads=threads,
        total_ops=total_ops,
        seed=seed,
        verify=False,
        **params,
    )


def harness_execution_overrides():
    """Executor overrides for the whole benchmark suite, from the environment.

    ``HARNESS_EXECUTOR`` / ``HARNESS_JOBS`` switch every figure/table sweep
    onto a different executor (e.g. ``HARNESS_EXECUTOR=process
    HARNESS_JOBS=4``) without touching the benchmark modules — the merged
    series, and therefore every printed figure, is identical either way.
    """
    executor = os.environ.get("HARNESS_EXECUTOR") or None
    jobs_raw = os.environ.get("HARNESS_JOBS")
    jobs = int(jobs_raw) if jobs_raw else None
    if jobs is not None and executor is None:
        # HARNESS_JOBS alone would be silently ignored by the serial
        # executor; asking for workers means asking for the process executor.
        executor = "process"
    return executor, jobs


def run_quick_series(experiment_id, executor=None, jobs=None):
    """Run an experiment's quick configuration and return (experiment, series).

    *executor*/*jobs* default to the suite-wide environment overrides (see
    :func:`harness_execution_overrides`).
    """
    from repro.experiments import get_experiment

    env_executor, env_jobs = harness_execution_overrides()
    experiment = get_experiment(experiment_id)
    config = experiment.quick_config.with_executor(
        executor or env_executor, jobs if jobs is not None else env_jobs
    )
    series = ExperimentRunner().run(config)
    return experiment, series


def print_series(experiment, series, metric=None):
    """Print the figure's rows (shown with pytest -s / in captured output)."""
    metric = metric or experiment.metric
    print()
    print(experiment.report(series))
    if metric != "context_switches":
        print()
        print(format_series_table(series, "context_switches",
                                  title=f"{experiment.experiment_id} — context switches"))


@pytest.fixture
def series_benchmark(benchmark):
    """Benchmark fixture that runs a whole sweep exactly once."""

    def run(experiment_id, metric=None):
        experiment, series = benchmark.pedantic(
            run_quick_series, args=(experiment_id,), rounds=1, iterations=1
        )
        print_series(experiment, series, metric)
        return experiment, series

    return run
