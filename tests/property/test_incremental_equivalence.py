"""Property: dirty-set relay search is observationally equivalent to exhaustive.

The incremental relay path (write tracking + dirty-set candidate sets) is
a pure search optimisation: for any (problem, mechanism, seed) the
run under incremental relay must produce the same outcome kind, the same
scheduler decision trace, the same event digest and the same backend
metrics (context switches included) as the run with the process-wide
toggle off.  ``validate=True`` arms the relay-invariance check on every
pass, so an unsound skip would also fail loudly mid-run.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.write_tracking import set_incremental_enabled
from repro.explore import ExploreTask, run_schedule
from repro.runtime.simulation import RandomScheduler

# Small, fast configurations; the property is about equivalence, not scale.
PROBLEMS = ("bounded_buffer", "readers_writers", "round_robin", "h2o")
MECHANISMS = ("autosynch", "autosynch_t", "relay_batched", "relay_fifo")


def _run(task: ExploreTask, seed: int, incremental: bool):
    previous = set_incremental_enabled(incremental)
    try:
        return run_schedule(task, RandomScheduler(seed))
    finally:
        set_incremental_enabled(previous)


@settings(max_examples=40, deadline=None)
@given(
    problem=st.sampled_from(PROBLEMS),
    mechanism=st.sampled_from(MECHANISMS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_incremental_matches_exhaustive(problem, mechanism, seed):
    task = ExploreTask(
        problem=problem,
        mechanism=mechanism,
        threads=2,
        total_ops=6,
        seed=seed,
        validate=True,
    )
    incremental = _run(task, seed, incremental=True)
    exhaustive = _run(task, seed, incremental=False)
    assert incremental.kind == exhaustive.kind
    assert incremental.trace == exhaustive.trace
    assert incremental.digest == exhaustive.digest
    assert incremental.backend_metrics == exhaustive.backend_metrics


@settings(max_examples=15, deadline=None)
@given(
    mechanism=st.sampled_from(MECHANISMS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_incremental_matches_exhaustive_larger_buffer(mechanism, seed):
    """A deeper workload on one problem: more waits per thread means more
    false evaluations, mark-clean transitions and re-dirtying writes."""
    task = ExploreTask(
        problem="bounded_buffer",
        mechanism=mechanism,
        threads=3,
        total_ops=9,
        seed=seed,
        validate=True,
        problem_params={"capacity": 1},
    )
    incremental = _run(task, seed, incremental=True)
    exhaustive = _run(task, seed, incremental=False)
    assert incremental.kind == exhaustive.kind
    assert incremental.trace == exhaustive.trace
    assert incremental.digest == exhaustive.digest
    assert incremental.backend_metrics == exhaustive.backend_metrics
