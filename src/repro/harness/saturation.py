"""Run a single saturation test and collect its measurements (§6.1).

A saturation test performs only monitor-accessing operations — no work
inside or outside the monitor — so the measurement isolates synchronization
overhead, which is exactly what the paper compares.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.harness.results import RunResult
from repro.problems.base import Problem
from repro.runtime.api import Backend
from repro.runtime.registry import available_backends, create_backend

__all__ = ["BACKENDS", "make_backend", "run_workload"]

#: Backend names accepted by :func:`make_backend` (the registry's view;
#: kept as a module attribute for backwards compatibility).
BACKENDS = available_backends()


def make_backend(
    kind: str, seed: int = 0, run_timeout: Optional[float] = None
) -> Backend:
    """Create a backend by registry name (one of :data:`BACKENDS`).

    Both this function and :func:`run_workload` are top-level entry points
    that depend only on their arguments: the execution subsystem's worker
    processes rebuild a fresh backend per run cell through here, so a
    backend instance never has to cross a process boundary.  Resolution
    goes through :mod:`repro.runtime.registry`, so third-party backends
    registered with :func:`~repro.runtime.registry.register_backend` are
    constructible here too; unknown names raise ``ValueError`` listing the
    registered backends.

    *run_timeout* is the simulation kernel's wall-clock safety net in
    seconds (``None`` keeps its default); backends without such a knob
    (threading, asyncio) ignore it, as they do *seed*.
    """
    return create_backend(kind, seed=seed, run_timeout=run_timeout)


def run_workload(
    problem: Problem,
    mechanism: str,
    backend: Backend,
    threads: int,
    total_ops: int,
    seed: int = 0,
    profile: bool = False,
    verify: bool = True,
    validate: bool = False,
    **problem_params: object,
) -> RunResult:
    """Build and execute one saturation run, returning its measurements.

    ``validate`` enables the automatic monitor's relay-invariance checking
    (a :class:`~repro.core.errors.MonitorError` aborts the run if a relay
    step ever loses a signal); ``verify`` re-checks the problem's own
    invariants after the run.
    """
    spec = problem.build(
        mechanism,
        backend,
        threads=threads,
        total_ops=total_ops,
        seed=seed,
        profile=profile,
        validate=validate,
        **problem_params,
    )
    backend.reset_metrics()
    started = time.perf_counter()
    backend.run(spec.targets, spec.names)
    wall_time = time.perf_counter() - started
    if verify:
        spec.verify()
    return RunResult(
        problem=problem.name,
        mechanism=mechanism,
        backend=backend.name,
        threads=threads,
        wall_time=wall_time,
        operations=spec.operations,
        backend_metrics=backend.metrics.snapshot(),
        monitor_stats=spec.monitor.stats.snapshot(),
    )
