"""Serial-vs-sharded equivalence of swarm exploration, and the
cached-vs-uncached determinism contract of the TaskRuntime build cache.

The guarantee (mirror of ``test_parallel_equivalence.py`` for the
experiment harness): ``explore_swarm`` produces the same report — schedules
visited, failure kind/digest set and depth metrics — whatever executor or
job count computed its probes.  Per-stage ``timings`` are the only report
field allowed to differ (they measure the machine, not the search).  The
exhaustive explorers (``explore_dfs``, ``explore_dpor``) have no parallel
path: they run serially.

The cache half: a run served from the process-wide :func:`task_runtime`
cache (recycled backend, memoized predicate artifacts) is bit-identical to
a cold run with a fresh :class:`TaskRuntime` — the contract that lets
``explore_swarm``, ``--mode chaos`` and the DFS/DPOR frontier all route
through the cache without changing a single verdict.
"""

from __future__ import annotations

import pytest

from repro.explore.engine import (
    ExploreTask,
    TaskRuntime,
    clear_runtime_cache,
    explore_dfs,
    explore_swarm,
    run_schedule,
    task_runtime,
)
from repro.harness.execution import process as process_module
from repro.runtime.simulation import RandomScheduler


def report_signature(report):
    """Everything a report asserts, minus wall-clock timings."""
    return (
        report.schedules_visited,
        report.complete,
        report.failures_total,
        sorted((f.kind, f.digest, f.prefix) for f in report.failures),
        report.max_trace_steps,
        report.max_decision_depth,
        report.depth_capped,
        dict(report.stats),
    )


class TestSerialParallelEquivalence:
    def test_pool_after_serial_exploration_in_one_process(self, monkeypatch):
        """Regression: a forked worker used to inherit the parent's cached
        runtime, whose backend dispatches to carrier threads the child does
        not have, and waited on them forever.  The pool path is forced so
        the test also bites on a single-CPU host, and the result deadline is
        cut so a regression fails instead of waiting out the default."""
        task = ExploreTask(problem="bounded_buffer", mechanism="autosynch",
                           threads=2, total_ops=2)
        assert explore_dfs(task).schedules_visited == 52
        serial = explore_swarm(task, schedules=8, base_seed=5)
        monkeypatch.setattr(process_module, "serial_fallback_reason", lambda j, n: None)
        monkeypatch.setattr(process_module, "RESULT_DEADLINE_S", 60.0)
        sharded = explore_swarm(task, schedules=8, base_seed=5,
                                executor="process", jobs=2)
        assert report_signature(serial) == report_signature(sharded)

    def test_unknown_executor_lists_registry(self):
        task = ExploreTask(problem="bounded_buffer", mechanism="autosynch",
                           threads=2, total_ops=2)
        with pytest.raises(ValueError, match="serial"):
            explore_swarm(task, schedules=2, executor="bogus", jobs=2)


class TestCachedVsUncachedRuns:
    def setup_method(self):
        clear_runtime_cache()

    def probe_signature(self, outcome):
        return (outcome.kind, outcome.digest, outcome.trace.choices(),
                outcome.fault_events)

    def test_swarm_probe_digests_match_fresh_runtime(self):
        task = ExploreTask(problem="bounded_buffer", mechanism="autosynch",
                           threads=2, total_ops=3)
        for seed in range(6):
            # Cached: the process-wide runtime (recycled backend after the
            # first probe).  Uncached: a cold TaskRuntime per probe.
            cached = run_schedule(task, RandomScheduler(seed))
            cold = run_schedule(task, RandomScheduler(seed),
                                runtime=TaskRuntime(task))
            assert self.probe_signature(cached) == self.probe_signature(cold)

    def test_chaos_probe_digests_match_fresh_runtime(self):
        # The regression the TaskRuntime routing fixed: chaos probes differ
        # only by seed, so they share one cached runtime — and the recycled
        # backend must reproduce a cold run's trace and fault firings.
        task = ExploreTask(problem="bounded_buffer", mechanism="autosynch",
                           threads=2, total_ops=3,
                           fault_plan="dropped_signal", self_heal=True)
        for seed in range(4):
            seeded = ExploreTask(**{**task.to_dict(), "seed": seed})
            cached = run_schedule(seeded, RandomScheduler(seed))
            cold = run_schedule(seeded, RandomScheduler(seed),
                                runtime=TaskRuntime(seeded))
            assert self.probe_signature(cached) == self.probe_signature(cold)

    def test_probes_share_one_runtime_across_seeds(self):
        task = ExploreTask(problem="bounded_buffer", mechanism="autosynch",
                           threads=2, total_ops=2)
        runtimes = {
            id(task_runtime(ExploreTask(**{**task.to_dict(), "seed": seed})))
            for seed in range(5)
        }
        assert len(runtimes) == 1

    def test_swarm_report_matches_across_executors(self):
        task = ExploreTask(problem="bounded_buffer", mechanism="autosynch",
                           threads=2, total_ops=3)
        serial = explore_swarm(task, schedules=12, base_seed=3)
        sharded = explore_swarm(task, schedules=12, base_seed=3,
                                executor="process", jobs=2)
        assert report_signature(serial) == report_signature(sharded)
