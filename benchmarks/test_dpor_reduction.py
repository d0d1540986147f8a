"""Tentpole benchmark: DPOR must beat plain DFS >= 5x with identical verdicts.

Exhausts the bounded buffer at 2 producers / 2 consumers / capacity 1 /
8 operations twice per mechanism — plain DFS and DPOR — and asserts

* **reduction**: DPOR executes at least :data:`REQUIRED_RATIO` times fewer
  schedules (the broadcast baseline, whose futile-wakeup cascades all merge
  into one configuration, reduces far harder than that), and
* **bit-identical verdicts**: the multiset of failure kinds over the whole
  exploration is equal on both sides — reduction may remove redundant
  interleavings, never evidence.

A second section shows the qualitative win: at 12 operations DPOR still
*exhausts* the configuration, while plain DFS handed the very same schedule
budget runs out with the tree unfinished.

Schedule counts, wall times and the reducer's pruning counters land in
``BENCH_dpor_reduction.json`` at the repository root (CI uploads it as an
artifact).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.explore import ExploreTask, explore_dfs, explore_dpor
from repro.problems.base import all_mechanisms

#: Where the reduction snapshot lands (repository root).
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_dpor_reduction.json"

#: Required schedule-count advantage of DPOR per mechanism.
REQUIRED_RATIO = 5.0

THREADS = 2
#: 8 ops -> 4 items -> uniform per-thread quotas, so each role is one
#: symmetry class (with two threads, an odd item count gives each its own
#: quota and leaves no class — see BoundedBufferProblem.symmetry_classes).
TOTAL_OPS = 8
CAPACITY = 1

#: The baseline's schedule tree is infinite (futile-wakeup cycles); both
#: explorers get the same depth bound so their trees coincide.
BASELINE_MAX_DEPTH = 24

#: The beyond-DFS leg: DPOR exhausts this op count; plain DFS cannot within
#: DPOR's schedule budget.
BEYOND_OPS = 12

_RESULTS: dict = {"mechanisms": {}, "beyond_dfs": {}}


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    if _RESULTS["mechanisms"] or _RESULTS["beyond_dfs"]:
        RESULTS_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


def _task(mechanism: str, total_ops: int = TOTAL_OPS) -> ExploreTask:
    return ExploreTask(
        problem="bounded_buffer",
        mechanism=mechanism,
        threads=THREADS,
        total_ops=total_ops,
        problem_params={"capacity": CAPACITY},
    )


@pytest.mark.parametrize("mechanism", all_mechanisms())
def test_reduction_factor_and_verdict_identity(benchmark, mechanism):
    max_depth = BASELINE_MAX_DEPTH if mechanism == "baseline" else None
    task = _task(mechanism)

    def explore_both():
        t0 = time.perf_counter()
        full = explore_dfs(task, max_depth=max_depth)
        t1 = time.perf_counter()
        reduced = explore_dpor(task, max_depth=max_depth)
        t2 = time.perf_counter()
        return full, reduced, t1 - t0, t2 - t1

    full, reduced, dfs_seconds, dpor_seconds = benchmark.pedantic(
        explore_both, rounds=1, iterations=1
    )
    assert full.complete and reduced.complete
    ratio = full.schedules_visited / reduced.schedules_visited

    # The whole point: identical violation sets, bit for bit.  Failure
    # *counts* legitimately differ (that is the reduction); the kinds seen
    # across the exploration may not.
    full_kinds = Counter(f.kind for f in full.failures)
    reduced_kinds = Counter(f.kind for f in reduced.failures)
    assert set(full_kinds) == set(reduced_kinds), (
        f"{mechanism}: DPOR changed the violation set: "
        f"{dict(full_kinds)} vs {dict(reduced_kinds)}"
    )
    assert (full.failures_total == 0) == (reduced.failures_total == 0)

    assert ratio >= REQUIRED_RATIO, (
        f"{mechanism}: DPOR explored {reduced.schedules_visited} of "
        f"{full.schedules_visited} schedules — only {ratio:.2f}x, "
        f"required {REQUIRED_RATIO}x"
    )

    benchmark.extra_info["dfs_schedules"] = full.schedules_visited
    benchmark.extra_info["dpor_schedules"] = reduced.schedules_visited
    benchmark.extra_info["ratio"] = round(ratio, 2)
    _RESULTS["mechanisms"][mechanism] = {
        "dfs_schedules": full.schedules_visited,
        "dpor_schedules": reduced.schedules_visited,
        "ratio": round(ratio, 2),
        "dfs_seconds": round(dfs_seconds, 4),
        "dpor_seconds": round(dpor_seconds, 4),
        "failure_kinds": dict(sorted(full_kinds.items())),
        "dpor_stats": dict(reduced.stats),
        "max_depth": max_depth,
        "threads": THREADS,
        "total_ops": TOTAL_OPS,
        "capacity": CAPACITY,
    }


def test_dpor_exhausts_where_dfs_cannot(benchmark):
    """At 12 ops DPOR still finishes the tree; plain DFS given exactly
    DPOR's schedule budget does not — the qualitative version of the ratio.
    """
    task = _task("autosynch", total_ops=BEYOND_OPS)

    def explore_both():
        reduced = explore_dpor(task)
        capped = explore_dfs(task, max_schedules=reduced.schedules_visited)
        return reduced, capped

    reduced, capped = benchmark.pedantic(explore_both, rounds=1, iterations=1)
    assert reduced.complete, "DPOR failed to exhaust the 12-op configuration"
    assert not capped.complete, (
        "plain DFS finished within DPOR's budget — the beyond-DFS leg "
        "needs a larger configuration"
    )
    assert reduced.failures_total == 0
    assert capped.failures_total == 0

    benchmark.extra_info["dpor_schedules"] = reduced.schedules_visited
    _RESULTS["beyond_dfs"] = {
        "mechanism": "autosynch",
        "threads": THREADS,
        "total_ops": BEYOND_OPS,
        "capacity": CAPACITY,
        "dpor_schedules": reduced.schedules_visited,
        "dpor_complete": reduced.complete,
        "dfs_schedules_at_same_budget": capped.schedules_visited,
        "dfs_complete_at_same_budget": capped.complete,
        "dpor_stats": dict(reduced.stats),
    }
