"""Unit coverage for the exploration throughput engine's building blocks:
backend recycling, the predicate artifact memo, verified-depth replay,
loading of older repro files and per-stage timings.
"""

from __future__ import annotations

import pytest

from repro.explore import load_repro, replay_repro, repro_payload, write_repro
from repro.explore.engine import (
    ExploreTask,
    TaskRuntime,
    clear_runtime_cache,
    explore_dfs,
    run_prefix,
    task_runtime,
)
from repro.explore.dpor import explore_dpor
from repro.predicates.predicate import (
    _classified_parts,
    clear_predicate_memo,
    compile_predicate,
)
from repro.runtime.simulation import SimulationBackend, SimulationError


TASK = ExploreTask(problem="bounded_buffer", mechanism="autosynch",
                   threads=2, total_ops=2)


def outcome_signature(outcome):
    return (outcome.kind, outcome.digest, outcome.trace.choices(),
            outcome.backend_metrics, outcome.monitor_stats)


class TestBackendRecycling:
    def test_recycled_backend_runs_are_bit_identical(self):
        runtime = TaskRuntime(TASK)
        first = run_prefix(TASK, (), runtime=runtime)
        # Same runtime again: the backend is recycled, not rebuilt.
        recycled = run_prefix(TASK, (), runtime=runtime)
        cold = run_prefix(TASK, (), runtime=TaskRuntime(TASK))
        assert outcome_signature(first) == outcome_signature(recycled)
        assert outcome_signature(first) == outcome_signature(cold)

    def test_recycle_refused_mid_run(self):
        backend = SimulationBackend(seed=0)
        refusals = []

        async def recycles_mid_run():
            with pytest.raises(SimulationError, match="in progress") as refused:
                backend.recycle()
            refusals.append(refused.value)

        backend.run([recycles_mid_run])
        assert len(refusals) == 1

    def test_runtime_recycles_one_backend_until_closed(self):
        runtime = TaskRuntime(TASK)
        run_prefix(TASK, (), runtime=runtime)
        parked = runtime._backend
        assert parked is not None
        run_prefix(TASK, (), runtime=runtime)
        assert runtime._backend is parked
        runtime.close()
        assert runtime._backend is None

    def test_runtime_cache_normalizes_seed_and_caps_size(self):
        clear_runtime_cache()
        base = task_runtime(TASK)
        reseeded = task_runtime(ExploreTask(**{**TASK.to_dict(), "seed": 7}))
        assert base is reseeded
        assert task_runtime(TASK) is base


class TestPredicateMemo:
    def test_recompilation_shares_classified_artifacts(self):
        clear_predicate_memo()
        first = compile_predicate("count > 0", {"count": 0}, {"n": 0})
        misses = _classified_parts.cache_info().misses
        second = compile_predicate("count > 0", {"count": 0}, {"n": 0})
        assert _classified_parts.cache_info().misses == misses
        assert _classified_parts.cache_info().hits > 0
        # Fresh wrapper objects: per-predicate mutable state (quarantine,
        # engine demotion) must not leak between compilations.
        assert first is not second
        assert first.expr is second.expr

    def test_memo_clears_and_recompiles(self):
        compile_predicate("count > 0", {"count": 0})
        clear_predicate_memo()
        assert _classified_parts.cache_info().currsize == 0
        again = compile_predicate("count > 0", {"count": 0})
        assert "count" in again.shared_names


class TestVerifiedDepthReplay:
    def test_verified_prefix_replay_matches_full_checking(self):
        full = run_prefix(TASK, (1, 1, 0))
        shared = run_prefix(TASK, (1, 1, 0), verified_depth=3)
        assert outcome_signature(full) == outcome_signature(shared)

    def test_dpor_prefix_sharing_keeps_dfs_violation_contract(self):
        # The whole-engine property: prefix-shared DPOR still visits the
        # schedules it visited before sharing existed (pinned count for the
        # canonical 2x2 exhaust) and stays complete.
        report = explore_dpor(TASK)
        assert report.complete
        assert report.schedules_visited == 17


class TestLegacyReproFiles:
    def test_trace_with_footprints_key_replays(self, tmp_path):
        """Repro files written by older ``--dpor`` runs carry a per-decision
        ``"footprints"`` list (None for shared-prefix slices); loading
        ignores it and the schedule replays to its recorded digest."""
        task = ExploreTask(problem="bounded_buffer", mechanism="autosynch",
                           threads=2, total_ops=4, starvation_budget=1)
        report = explore_dfs(task, stop_on_failure=True)
        failure = report.failures[0]
        payload = repro_payload(task, failure, "dfs+dpor")
        points = payload["trace"]["points"]
        payload["trace"]["footprints"] = [None] * 2 + [
            {"reads": ["count"], "writes": ["count"],
             "locks": ["L0:lock"], "conds": ["C0:cond-0"]}
        ] * (len(points) - 2)
        replay = replay_repro(load_repro(write_repro(tmp_path / "old.json", payload)))
        assert replay.reproduced, replay.describe()
        assert replay.outcome.kind == failure.kind == "oracle:starvation_budget"
        assert replay.outcome.digest == failure.digest


class TestStageTimings:
    def test_outcome_carries_stage_buckets(self):
        outcome = run_prefix(TASK, ())
        assert set(outcome.timings) == {"build", "run", "classify", "oracle"}
        assert all(seconds >= 0.0 for seconds in outcome.timings.values())
        # Oracle checks happen inside the run stage.
        assert outcome.timings["oracle"] <= outcome.timings["run"]
