"""Integration tests: the problems on real threads (smaller scale).

The threading backend exercises the same monitor code under genuine
preemption, so these runs catch races that a cooperative scheduler cannot
(lost wake-ups, missing lock protection, non-atomic check-then-act).
"""

from __future__ import annotations

import pytest

from repro.harness.saturation import run_workload
from repro.problems import MECHANISMS, PROBLEMS, get_problem
from repro.runtime import ThreadingBackend

# Every registered problem under every mechanism it declares (scenario
# problems run under the automatic mechanisms only — no explicit twin).
ALL_COMBINATIONS = [
    (problem_name, mechanism)
    for problem_name in PROBLEMS
    for mechanism in get_problem(problem_name).mechanisms
]


@pytest.mark.parametrize("problem_name, mechanism", ALL_COMBINATIONS)
def test_problem_runs_on_real_threads(problem_name, mechanism):
    problem = get_problem(problem_name)
    backend = ThreadingBackend()
    result = run_workload(
        problem, mechanism, backend, threads=4, total_ops=120, seed=9, verify=True
    )
    assert result.wall_time >= 0
    assert result.operations > 0


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_repeated_runs_stay_correct(mechanism):
    """Run the most signalling-heavy problem several times to shake out races."""
    problem = get_problem("parameterized_bounded_buffer")
    for attempt in range(3):
        backend = ThreadingBackend()
        run_workload(
            problem, mechanism, backend, threads=6, total_ops=180, seed=attempt, verify=True
        )


def test_threaded_run_reports_integer_counters():
    """Real threads fill the same exact event counters as the simulation."""
    problem = get_problem("round_robin")
    backend = ThreadingBackend()
    result = run_workload(
        problem, "autosynch", backend, threads=6, total_ops=180, seed=1, verify=True
    )
    stats = result.monitor_stats
    assert all(type(value) is int for value in stats.values())
    assert not any(name.endswith("_time") for name in stats)
    assert stats["entries"] >= result.operations
    assert stats["relay_signal_calls"] > 0


def test_monitors_are_independent_between_runs():
    problem = get_problem("bounded_buffer")
    backend = ThreadingBackend()
    first = run_workload(problem, "autosynch", backend, threads=2, total_ops=60, seed=0)
    second = run_workload(problem, "autosynch", backend, threads=2, total_ops=60, seed=0)
    # Each run builds a fresh monitor, so per-run stats do not accumulate.
    assert first.monitor_stats["entries"] == second.monitor_stats["entries"]
