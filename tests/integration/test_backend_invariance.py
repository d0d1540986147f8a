"""Validate-mode invariance sweep: asyncio vs threading, every problem.

The asyncio backend must be a drop-in execution substrate: for every
builtin problem and declarative scenario, a validate-mode run (relay
invariance checked at every step) must complete with the problem's own
invariants verified, produce the same operation count as the threading
backend, and never lose a signal.  Workloads here are plain synchronous
bodies: real OS threads on the threading backend, their generated coroutine
twins as tasks on the asyncio backend's one event loop.  So this sweep pins
the backend's lock/condition semantics under the automatic monitors and,
on every problem with a hand-written explicit-signal monitor, under entries
that call ``condition.wait()`` and ``notify`` themselves.
"""

from __future__ import annotations

import pytest

from repro.harness.saturation import make_backend, run_workload
from repro.problems.base import EXPLICIT_MECHANISM
from repro.problems.registry import available_problems, get_problem

#: Small but non-trivial sweep: enough threads to force real contention.
THREADS = 4
TOTAL_OPS = 24

#: Explicit-monitor sizes where the default one parks no condition waiter
#: on asyncio: the bounded buffer's tasks all get through at 4 / 24, and
#: park 6 waiters at 8 / 48.
EXPLICIT_SIZES = {"bounded_buffer": (8, 48)}

#: Problems whose asyncio runs park no condition waiter at any size, under
#: either mechanism: a task is never preempted between its start and end
#: entries, so no reader ever meets a writer inside and no philosopher
#: finds a fork taken.  Their explicit waits run only on threads.
NEVER_PARK_ON_ASYNCIO = {"readers_writers", "dining_philosophers"}

#: Problems with a hand-written explicit-signal monitor.
EXPLICIT_PROBLEMS = [
    name
    for name in available_problems()
    if EXPLICIT_MECHANISM in get_problem(name).supported_mechanisms()
]


def _run(problem_name, backend_name, mechanism="autosynch",
         threads=THREADS, total_ops=TOTAL_OPS):
    problem = get_problem(problem_name)
    backend = make_backend(backend_name)
    return run_workload(
        problem,
        mechanism,
        backend,
        threads=threads,
        total_ops=total_ops,
        verify=True,       # problem invariants / conservation oracles
        validate=True,     # relay-invariance checking at every step
    )


@pytest.mark.parametrize("problem_name", available_problems())
def test_asyncio_matches_threading_in_validate_mode(problem_name):
    """Same verdict on both backends: runs complete, invariants verified,
    identical operation counts (the conserved quantity of the sweep)."""
    _assert_same_verdict(problem_name, "autosynch")


@pytest.mark.parametrize("problem_name", EXPLICIT_PROBLEMS)
def test_explicit_signalling_matches_threading(problem_name):
    """The explicit monitors' own waits and notifies hold on asyncio too,
    and every problem that can park a condition waiter there does."""
    size = EXPLICIT_SIZES.get(problem_name, (THREADS, TOTAL_OPS))
    asyncio_result = _assert_same_verdict(problem_name, EXPLICIT_MECHANISM, *size)
    if problem_name not in NEVER_PARK_ON_ASYNCIO:
        assert asyncio_result.backend_metrics["condition_waits"] > 0


def _assert_same_verdict(problem_name, mechanism, *size):
    threading_result = _run(problem_name, "threading", mechanism, *size)
    asyncio_result = _run(problem_name, "asyncio", mechanism, *size)

    assert threading_result.backend == "threading"
    assert asyncio_result.backend == "asyncio"
    assert asyncio_result.operations == threading_result.operations
    # Both backends drove the full workload through the monitor.
    assert asyncio_result.monitor_stats["entries"] > 0
    assert threading_result.monitor_stats["entries"] > 0
    return asyncio_result


@pytest.mark.parametrize("problem_name", ["resource_pool", "fifo_semaphore"])
@pytest.mark.parametrize("mechanism", ["relay_fifo", "baseline"])
def test_service_scenarios_hold_under_other_policies_on_asyncio(
    problem_name, mechanism
):
    """The service-tier scenarios keep their conservation post-conditions on
    the asyncio backend under the FIFO relay and broadcast policies too."""
    result = _run_mechanism(problem_name, mechanism)
    assert result.operations > 0


def _run_mechanism(problem_name, mechanism):
    problem = get_problem(problem_name)
    backend = make_backend("asyncio")
    return run_workload(
        problem,
        mechanism,
        backend,
        threads=THREADS,
        total_ops=TOTAL_OPS,
        verify=True,
        validate=True,
    )
