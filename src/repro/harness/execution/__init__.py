"""Pluggable execution of experiment sweeps.

This package owns *how* a sweep's run cells get executed, decoupled from
*what* they measure (the harness) and *which* sweep they belong to (the
experiments).  See :mod:`repro.harness.execution.base` for the executor
contract and :mod:`repro.harness.execution.cells` for the three pure
stages — enumerate, execute, merge — that ``ExperimentRunner.run`` is
built from.

Built-in executors:

* ``serial`` — in-process, one cell at a time (the legacy behaviour);
* ``process`` — shards cells over a ``multiprocessing`` pool
  (``RunConfig.jobs`` / ``--jobs`` workers).

Both produce bit-identical merged series for the same config; the
equivalence is enforced by ``tests/integration/test_parallel_equivalence``.
"""

from repro.harness.execution.base import (
    DEFAULT_RETRY_BACKOFF,
    Executor,
    ProgressCallback,
    TaskProgressCallback,
    call_with_retries,
)
from repro.harness.execution.cells import (
    FrozenMapping,
    RunCell,
    cell_seed,
    enumerate_cells,
    execute_cell,
    merge_cell_results,
)
from repro.harness.execution.registry import (
    available_executors,
    create_executor,
    describe_executor,
    get_executor,
    register_executor,
)
from repro.harness.execution.serial import SerialExecutor
from repro.harness.execution.process import (
    MAX_POOL_REBUILDS,
    PoolTaskTimeout,
    ProcessExecutor,
    default_job_count,
)

__all__ = [
    "DEFAULT_RETRY_BACKOFF",
    "MAX_POOL_REBUILDS",
    "PoolTaskTimeout",
    "call_with_retries",
    "Executor",
    "ProgressCallback",
    "TaskProgressCallback",
    "FrozenMapping",
    "RunCell",
    "cell_seed",
    "enumerate_cells",
    "execute_cell",
    "merge_cell_results",
    "available_executors",
    "create_executor",
    "describe_executor",
    "get_executor",
    "register_executor",
    "SerialExecutor",
    "ProcessExecutor",
    "default_job_count",
]
