"""The experiment runner: sweeps thread counts and mechanisms for one figure.

``RunConfig`` captures everything needed to regenerate one figure or table of
the paper: the problem, the mechanisms to compare, the x-axis values, the
operation budget, the number of repetitions, the backend — and, since the
execution layer became pluggable, *how* the sweep's cells are executed
(``executor``/``jobs``).

``ExperimentRunner.run`` is three pure stages built on
:mod:`repro.harness.execution`:

1. enumerate the config into picklable :class:`RunCell` units,
2. map the cells through the configured executor (``"serial"`` in-process,
   ``"process"`` sharded over a ``multiprocessing`` pool, or any other
   registered executor),
3. deterministically merge the per-cell results — repetition ordering and
   the paper's drop-best/drop-worst protocol included — into an
   :class:`ExperimentSeries` that is identical regardless of executor or
   job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

from repro.harness.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.harness.execution import (
    FrozenMapping,
    create_executor,
    enumerate_cells,
    execute_cell,
    merge_cell_results,
)
from repro.harness.results import (
    ExperimentSeries,
    MeasurementPoint,
    aggregate_runs,
)
from repro.problems import get_problem
from repro.problems.base import MECHANISMS, Problem

__all__ = ["RunConfig", "ExperimentRunner", "run_point"]


@dataclass(frozen=True)
class RunConfig:
    """Configuration for one experiment sweep.

    Instances are genuinely immutable and hashable: sequence fields are
    normalized to tuples and ``problem_params`` to a
    :class:`~repro.harness.execution.FrozenMapping`, so configs are safe to
    use as shard or cache keys and ``replace()``/``scaled()`` copies share
    no mutable state.
    """

    problem: str
    thread_counts: Tuple[int, ...]
    #: Any mechanism names a problem supports: ``"explicit"`` plus every
    #: registered signalling policy (defaults to the paper's comparison set).
    mechanisms: Tuple[str, ...] = MECHANISMS
    total_ops: int = 2_000
    repetitions: int = 3
    drop_extremes: bool = True
    backend: str = "simulation"
    seed: int = 0
    #: Run the automatic monitors with relay-invariance checking enabled.
    validate: bool = False
    #: Registered executor that runs the sweep's cells (``"serial"`` or
    #: ``"process"``; see :mod:`repro.harness.execution`).
    executor: str = "serial"
    #: Worker count for executors that parallelize (ignored by ``"serial"``).
    #: ``None`` leaves the count to the executor's own default — one worker
    #: per core for ``"process"`` — so selecting a parallel executor without
    #: a job count actually parallelizes.
    jobs: Optional[int] = None
    #: Metric the drop-best/drop-worst protocol ranks repetitions by.
    #: ``None`` selects ``"modelled_runtime"`` on the simulation backend —
    #: a deterministic function of the exact event counts, so the same
    #: repetitions are dropped on every run — and measured ``"wall_time"``
    #: on the threading backend.
    rank_metric: Optional[str] = None
    x_label: str = "# threads"
    problem_params: Mapping[str, object] = field(default_factory=dict)
    #: For problems compiled from a runtime-registered declarative scenario
    #: (``--scenario`` sweeps): the spec as JSON.  Cells carry it to worker
    #: processes, which re-register the scenario before resolving the
    #: problem name — required wherever workers don't inherit the parent's
    #: registry (the ``spawn`` start method).  A JSON string (not a dict)
    #: keeps the config hashable.
    scenario_json: Optional[str] = None
    #: Wall-clock safety net per run cell, in seconds (simulation backend
    #: only; ``None`` keeps the kernel's default).  A cell whose simulation
    #: keeps deciding past it (a livelock) fails with a hang verdict and a
    #: parked-thread autopsy instead of wedging the whole sweep.
    run_timeout: Optional[float] = None
    #: Per-cell re-attempts after a failure (0 = fail fast).  Retries run
    #: with exponential backoff, inside the worker for parallel executors.
    cell_retries: int = 0
    #: Base delay in seconds between cell retry attempts; doubles each time.
    retry_backoff: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "thread_counts", tuple(self.thread_counts))
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        if not isinstance(self.problem_params, FrozenMapping):
            object.__setattr__(
                self, "problem_params", FrozenMapping(self.problem_params)
            )

    @property
    def effective_rank_metric(self) -> str:
        """The metric repetitions are actually ranked by (see ``rank_metric``)."""
        if self.rank_metric is not None:
            return self.rank_metric
        return "modelled_runtime" if self.backend == "simulation" else "wall_time"

    def scaled(self, total_ops: Optional[int] = None, repetitions: Optional[int] = None,
               thread_counts: Optional[Sequence[int]] = None) -> "RunConfig":
        """Return a copy with a smaller/larger budget (used by the benchmarks
        to run quick versions of the full paper sweeps)."""
        updates: dict = {}
        if total_ops is not None:
            updates["total_ops"] = total_ops
        if repetitions is not None:
            updates["repetitions"] = repetitions
        if thread_counts is not None:
            updates["thread_counts"] = tuple(thread_counts)
        return replace(self, **updates)

    def with_executor(self, executor: Optional[str] = None,
                      jobs: Optional[int] = None) -> "RunConfig":
        """Return a copy with the execution knobs overridden (``None`` keeps
        the current value)."""
        updates: dict = {}
        if executor is not None:
            updates["executor"] = executor
        if jobs is not None:
            updates["jobs"] = jobs
        return replace(self, **updates) if updates else self


def run_point(
    problem: Union[Problem, str],
    config: RunConfig,
    mechanism: str,
    threads: int,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> MeasurementPoint:
    """Run all repetitions of one ``(mechanism, threads)`` configuration.

    A top-level, picklable entry point (like
    :func:`~repro.harness.saturation.run_workload`): it depends only on its
    arguments, so it can itself be shipped to worker processes.  Cells are
    seeded with the same coordinate-derived :func:`cell_seed` scheme the
    full sweep uses, so a point run in isolation reproduces the exact runs
    of the same point inside a sweep.
    """
    problem_name = problem.name if isinstance(problem, Problem) else str(problem)
    point_config = replace(
        config,
        problem=problem_name,
        mechanisms=(mechanism,),
        thread_counts=(threads,),
    )
    runs = [execute_cell(cell) for cell in enumerate_cells(point_config)]
    return aggregate_runs(
        runs,
        drop_extremes=config.drop_extremes,
        cost_model=cost_model,
        rank_metric=config.effective_rank_metric,
    )


class ExperimentRunner:
    """Executes :class:`RunConfig` sweeps through the execution subsystem."""

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self._cost_model = cost_model
        self._progress = progress

    def _report(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def run_point(
        self,
        problem: Union[Problem, str],
        config: RunConfig,
        mechanism: str,
        threads: int,
    ) -> MeasurementPoint:
        """Run all repetitions of one (mechanism, threads) configuration."""
        return run_point(problem, config, mechanism, threads, cost_model=self._cost_model)

    def run(self, config: RunConfig) -> ExperimentSeries:
        """Run the full sweep described by *config*.

        Mechanism and executor names are validated before any work starts,
        so a typo fails fast instead of halfway through a sweep.  Progress
        messages are emitted once per completed cell, in deterministic cell
        order, from this process — the executor contract forwards worker
        completions to the parent, so lines never interleave or go missing
        under parallel execution.
        """
        problem = get_problem(config.problem)
        supported = problem.supported_mechanisms()
        unknown = [name for name in config.mechanisms if name not in supported]
        if unknown:
            raise ValueError(
                f"unknown mechanism(s) {unknown} for problem {config.problem!r}; "
                f"supported: {supported}"
            )
        executor = create_executor(
            config.executor,
            jobs=config.jobs,
            # Forwarded only when retrying is on, so custom executors with a
            # legacy __init__(jobs) signature keep working by default.
            retries=config.cell_retries or None,
            retry_backoff=config.retry_backoff if config.cell_retries else None,
        )
        cells = enumerate_cells(config)
        progress = None
        if self._progress is not None:
            total = len(cells)

            def progress(index, cell, result):
                self._report(f"{cell.describe()}/{config.repetitions} [{index + 1}/{total}]")

        results = executor.run_cells(cells, progress=progress)
        return merge_cell_results(config, cells, results, cost_model=self._cost_model)
