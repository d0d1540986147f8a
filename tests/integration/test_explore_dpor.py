"""DPOR exploration and the DFS/shrink bugfix sweep.

Covers the invariant the reduction lives or dies by — DPOR must report the
identical violation set as plain DFS on every configuration both can
exhaust — plus the three repairs that rode along: the DFS frontier keying
schedules by prefix (no double execution), the shrinker preserving failure
*identity* rather than bare kind, and the exploration report separating
trace step count from decision depth (with branching at exactly
``max_depth`` included).
"""

from __future__ import annotations

import itertools
import re

import pytest

from repro.core import AutoSynchMonitor
from repro.explore import (
    ExploreTask,
    explore_dfs,
    explore_dpor,
    load_repro,
    replay_repro,
    repro_payload,
    shrink_failure,
    write_repro,
)
from repro.explore import engine as engine_module
from repro.explore import shrink as shrink_module
from repro.explore.__main__ import main as explore_main
from repro.explore.dpor import DPOR_MODE, _ConfigProbe
from repro.explore.engine import ScheduleOutcome, StopRun, run_prefix
from repro.problems.base import all_mechanisms
from repro.problems.bounded_buffer import BoundedBufferProblem
from repro.runtime import SimulationBackend
from repro.runtime.simulation.schedulers import SchedulePoint, ScheduleTrace

# Fixture re-use: importing the fixture functions registers them here.
from test_seeded_defects import lossy_policy, unordered_dining  # noqa: F401

BUFFER_2X2 = dict(
    problem="bounded_buffer",
    threads=2,
    total_ops=4,
    problem_params={"capacity": 1},
)


def _outcome_for(points, kind="ok", message="") -> ScheduleOutcome:
    trace = ScheduleTrace(points)
    return ScheduleOutcome(
        status="ok" if kind == "ok" else "failure",
        kind=kind,
        message=message,
        trace=trace,
        backend_metrics={},
    )


class TestDfsFrontierDedup:
    def test_bounded_buffer_2x2_runs_each_schedule_once(self, monkeypatch):
        """Counting regression: every executed prefix is distinct."""
        executed = []
        real = engine_module.run_prefix

        def counting(task, prefix, **kwargs):
            executed.append(tuple(prefix))
            return real(task, prefix, **kwargs)

        monkeypatch.setattr(engine_module, "run_prefix", counting)
        task = ExploreTask(mechanism="autosynch", **BUFFER_2X2)
        report = explore_dfs(task)
        assert report.complete
        assert len(executed) == report.schedules_visited
        assert len(executed) == len(set(executed)), (
            "the DFS frontier executed the same prefix more than once"
        )

    def test_diverging_run_cannot_double_enqueue(self, monkeypatch):
        """A run whose recorded choices ignore its prefix (divergence) used
        to re-enqueue children its siblings had already produced; the
        frontier is now keyed by prefix tuple."""
        # Every run reports the same two-decision trace with two runnable
        # threads at each decision, choices (0, 0) — regardless of prefix.
        points = [
            SchedulePoint(step=0, runnable=(0, 1), chosen=0, reason="start"),
            SchedulePoint(step=1, runnable=(0, 1), chosen=0, reason="yield"),
        ]
        executed = []

        def stubbed(task, prefix, **kwargs):
            executed.append(tuple(prefix))
            return _outcome_for(points, kind="divergence", message="stub")

        monkeypatch.setattr(engine_module, "run_prefix", stubbed)
        task = ExploreTask(mechanism="autosynch", **BUFFER_2X2)
        report = explore_dfs(task, failure_limit=0)
        # Tree over the stub: () branches (1,) and (0, 1); each of those
        # re-branches the same children, which dedup must swallow.
        assert len(executed) == len(set(executed))
        assert sorted(executed) == [(), (0, 1), (1,)]
        assert report.schedules_visited == 3


class TestShrinkPreservesIdentity:
    def test_over_shrink_onto_different_assertion_is_rejected(self, monkeypatch):
        """Dropping the forced decision flips the run onto a *different*
        broken invariant with the same ``postcondition`` kind; the shrinker
        must reject that candidate now that it checks identity."""
        conservation = "put 4 - taken 2 = 2, but count=0"
        drained = "buffer should drain completely"
        point = SchedulePoint(step=0, runnable=(0, 1), chosen=1, reason="start")

        def stubbed(task, prefix, **kwargs):
            if tuple(prefix) == (1,):
                return _outcome_for([point], "postcondition", conservation)
            # Every shrink candidate (the default continuation included)
            # fails too — but with a different assertion.
            return _outcome_for([point], "postcondition", drained)

        monkeypatch.setattr(shrink_module, "run_prefix", stubbed)
        task = ExploreTask(mechanism="autosynch", **BUFFER_2X2)
        result = shrink_failure(task, (1,), "postcondition", message=conservation)
        assert result.prefix == (1,), (
            "the shrinker swapped the repro onto a different assertion"
        )
        assert result.outcome.message == conservation

    def test_kind_only_legacy_callers_still_shrink(self, monkeypatch):
        """Without a message, kind-equality remains the (legacy) criterion."""
        point = SchedulePoint(step=0, runnable=(0, 1), chosen=1, reason="start")

        def stubbed(task, prefix, **kwargs):
            return _outcome_for([point], "deadlock", f"msg for {tuple(prefix)}")

        monkeypatch.setattr(shrink_module, "run_prefix", stubbed)
        task = ExploreTask(mechanism="autosynch", **BUFFER_2X2)
        result = shrink_failure(task, (1,), "deadlock")
        assert result.prefix == ()

    def test_digit_masking_tolerates_counter_drift(self):
        from repro.explore.shrink import failure_identity

        a = failure_identity("postcondition", "expected 4 puts, saw 2")
        b = failure_identity("postcondition", "expected 8 puts, saw 6")
        assert a == b
        c = failure_identity("postcondition", "buffer should drain completely")
        assert a != c
        # Kinds that already carry their identity ignore the message.
        assert failure_identity("missed_signal", "x") == ("missed_signal", None)


class TestDepthReporting:
    def test_trace_steps_and_decision_depth_are_distinct(self):
        task = ExploreTask(
            problem="bounded_buffer",
            mechanism="autosynch",
            threads=1,
            total_ops=2,
            problem_params={"capacity": 1},
        )
        report = explore_dfs(task)
        assert report.complete
        # Forced decisions (one runnable thread) count as steps but not as
        # decision depth, and this tiny workload has plenty of them.
        assert report.max_trace_steps > report.max_decision_depth > 0
        # Back-compat alias.
        assert report.max_depth == report.max_trace_steps

    def test_alternatives_at_exactly_max_depth_are_branched(self):
        task = ExploreTask(mechanism="autosynch", **BUFFER_2X2)
        traces = []
        full = explore_dfs(
            task, progress=lambda n, outcome: traces.append(outcome.trace)
        )
        assert full.complete
        deepest = max(
            index
            for trace in traces
            for index, point in enumerate(trace.points)
            if point.branching > 1
        )
        bounded = explore_dfs(task, max_depth=deepest)
        # The bound equals the deepest real decision: nothing may be lost.
        assert bounded.schedules_visited == full.schedules_visited
        # One decision earlier genuinely prunes.
        assert explore_dfs(task, max_depth=deepest - 1).schedules_visited < (
            full.schedules_visited
        )


class TestDporMatchesDfs:
    @pytest.mark.parametrize("mechanism", all_mechanisms())
    def test_identical_violation_set_on_2x2(self, mechanism):
        max_depth = 24 if mechanism == "baseline" else None
        task = ExploreTask(mechanism=mechanism, **BUFFER_2X2)
        full = explore_dfs(task, max_depth=max_depth)
        reduced = explore_dpor(task, max_depth=max_depth)
        assert full.complete and reduced.complete
        assert reduced.mode == DPOR_MODE
        assert reduced.schedules_visited <= full.schedules_visited
        assert {f.kind for f in reduced.failures} == {
            f.kind for f in full.failures
        }
        assert (reduced.failures_total == 0) == (full.failures_total == 0)

    def test_dpor_refuses_fault_plans(self):
        task = ExploreTask(
            mechanism="autosynch",
            fault_plan={"name": "x", "faults": []},
            **BUFFER_2X2,
        )
        with pytest.raises(ValueError, match="fault injection"):
            explore_dpor(task)


class TestDporFindsSeededDefects:
    def test_lossy_relay_missed_signal_replays_bit_identically(
        self, lossy_policy, tmp_path
    ):
        task = ExploreTask(
            problem="bounded_buffer",
            mechanism=lossy_policy,
            threads=1,
            total_ops=2,
            problem_params={"capacity": 1},
        )
        report = explore_dpor(task)
        assert report.complete
        kinds = {failure.kind for failure in report.failures}
        assert "missed_signal" in kinds

        failure = next(f for f in report.failures if f.kind == "missed_signal")
        result = shrink_failure(
            task, failure.prefix, failure.kind, message=failure.message
        )
        shrunk = failure.__class__(
            kind=failure.kind,
            message=result.outcome.message,
            prefix=result.prefix,
            trace=result.outcome.trace,
            digest=result.outcome.digest,
        )
        payload = repro_payload(task, shrunk, report.mode)
        assert payload["reduced"] is True
        path = write_repro(tmp_path / "lossy_dpor.json", payload)
        replay = replay_repro(load_repro(path))
        assert replay.reproduced, replay.describe()
        assert replay.outcome.kind == "missed_signal"
        assert replay.outcome.digest == shrunk.digest

    def test_unordered_dining_deadlock_replays_bit_identically(
        self, unordered_dining, tmp_path
    ):
        task = ExploreTask(
            problem=unordered_dining,
            mechanism="explicit",
            threads=2,
            total_ops=2,
        )
        full = explore_dfs(task)
        report = explore_dpor(task)
        assert report.complete
        assert {f.kind for f in report.failures} == {"deadlock"}
        assert {f.kind for f in full.failures} == {"deadlock"}
        assert report.schedules_visited <= full.schedules_visited

        failure = report.failures[0]
        result = shrink_failure(
            task, failure.prefix, failure.kind, message=failure.message
        )
        shrunk = failure.__class__(
            kind=failure.kind,
            message=result.outcome.message,
            prefix=result.prefix,
            trace=result.outcome.trace,
            digest=result.outcome.digest,
        )
        path = write_repro(
            tmp_path / "dining_dpor.json",
            repro_payload(task, shrunk, report.mode),
        )
        replay = replay_repro(load_repro(path))
        assert replay.reproduced, replay.describe()
        assert replay.outcome.kind == "deadlock"
        assert replay.outcome.digest == shrunk.digest


#: DPOR schedule counts at threads=2, ops=4 (autosynch) before runs were
#: stopped at explored configurations; stopping may only lower them.
SCHEDULES_BEFORE_STOPPING = {
    "bounded_buffer": 17,
    "sleeping_barber": 31,
    "traffic_intersection": 78,
    "parameterized_bounded_buffer": 22,
}


def _stopped(outcome) -> bool:
    return outcome.ok and "already-explored configuration" in outcome.message


def _explore_collecting(task, **kwargs):
    outcomes = []
    report = explore_dpor(
        task, progress=lambda count, outcome: outcomes.append(outcome), **kwargs
    )
    return report, outcomes


class TestStoppedRuns:
    def test_bounded_buffer_3x9_stops_once_per_merge(self):
        task = ExploreTask("bounded_buffer", "autosynch", threads=3, total_ops=9)
        report, outcomes = _explore_collecting(task)
        assert report.complete and report.ok
        assert report.schedules_visited == 1275
        assert report.stats["merged_configs"] == 1260
        assert sum(map(_stopped, outcomes)) == 1260

    def test_stopped_run_is_ok_and_ends_at_the_merged_decision(self):
        task = ExploreTask(mechanism="autosynch", **BUFFER_2X2)
        report, outcomes = _explore_collecting(task)
        stopped = [outcome for outcome in outcomes if _stopped(outcome)]
        assert stopped
        cut_short = 0
        for outcome in stopped:
            assert outcome.kind == "ok"
            merged_at = int(outcome.message.split()[1])
            assert len(outcome.trace) == merged_at + 1
            # Unstopped, the same schedule passes through the merged
            # decision and (unless it was the last one) runs on past it.
            full = run_prefix(task, outcome.trace.choices())
            assert full.ok
            assert full.trace.points[: len(outcome.trace)] == outcome.trace.points
            cut_short += len(full.trace) > len(outcome.trace)
        assert cut_short

    def test_stop_run_skips_verify(self):
        task = ExploreTask(mechanism="autosynch", **BUFFER_2X2)

        class StopAtThree:
            def __init__(self, backend, spec):
                spec.verify = self.verify

            def verify(self):
                raise AssertionError("verify() ran on a stopped run")

            def observe(self, point):
                if point.step == 3:
                    raise StopRun("stopped at decision 3")

        outcome = run_prefix(task, (), instrument=StopAtThree)
        assert outcome.ok and outcome.message == "stopped at decision 3"
        assert len(outcome.trace) == 4

    def test_starvation_budget_keeps_every_run_whole(self):
        """The starvation watcher depends on the path, so no run stops and
        the search is the one from before stopping existed."""
        task = ExploreTask(
            "bounded_buffer", "autosynch", threads=2, total_ops=4,
            starvation_budget=1000,
        )
        report, outcomes = _explore_collecting(task)
        assert report.complete and report.ok
        assert not any(map(_stopped, outcomes))
        assert report.schedules_visited == 17
        assert report.stats["merged_configs"] == 29

    @pytest.mark.parametrize("problem", sorted(SCHEDULES_BEFORE_STOPPING))
    def test_stopping_never_adds_schedules(self, problem):
        task = ExploreTask(problem, "autosynch", threads=2, total_ops=4)
        report = explore_dpor(task)
        assert report.complete and report.ok
        assert report.schedules_visited <= SCHEDULES_BEFORE_STOPPING[problem]


#: DPOR schedule counts at threads=2, ops=4 for every problem and supported
#: mechanism (baseline bounded at max_depth=12: its broadcast cascades make
#: the tree infinite).  readers_writers is left out: its tree is not
#: exhausted at this size.  Any change to the reduction must keep every
#: count, not only the verdicts.
PINNED_SCHEDULES = {
    "barrier": {"autosynch": 2, "autosynch_t": 2, "baseline": 2,
                "relay_batched": 2, "relay_fifo": 2},
    "bounded_buffer": {"autosynch": 17, "autosynch_t": 17, "baseline": 19,
                       "explicit": 16, "relay_batched": 17, "relay_fifo": 17},
    "dining_philosophers": {"autosynch": 2, "autosynch_t": 2, "baseline": 2,
                            "explicit": 2, "relay_batched": 2, "relay_fifo": 2},
    "fifo_semaphore": {"autosynch": 2, "autosynch_t": 2, "baseline": 2,
                       "relay_batched": 2, "relay_fifo": 2},
    "h2o": {"autosynch": 6, "autosynch_t": 6, "baseline": 12, "explicit": 6,
            "relay_batched": 6, "relay_fifo": 6},
    "parameterized_bounded_buffer": {"autosynch": 22, "autosynch_t": 22,
                                     "baseline": 30, "explicit": 28,
                                     "relay_batched": 22, "relay_fifo": 22},
    "resource_pool": {"autosynch": 2, "autosynch_t": 2, "baseline": 2,
                      "relay_batched": 2, "relay_fifo": 2},
    "round_robin": {"autosynch": 2, "autosynch_t": 2, "baseline": 2,
                    "explicit": 2, "relay_batched": 2, "relay_fifo": 2},
    "sleeping_barber": {"autosynch": 30, "autosynch_t": 30, "baseline": 26,
                        "explicit": 24, "relay_batched": 30, "relay_fifo": 30},
    "traffic_intersection": {"autosynch": 69, "autosynch_t": 69, "baseline": 230,
                             "relay_batched": 69, "relay_fifo": 69},
}


class TestPinnedScheduleCounts:
    @pytest.mark.parametrize(
        "problem,mechanism,schedules",
        [
            (problem, mechanism, schedules)
            for problem, counts in sorted(PINNED_SCHEDULES.items())
            for mechanism, schedules in sorted(counts.items())
        ],
    )
    def test_exact_schedule_count(self, problem, mechanism, schedules):
        task = ExploreTask(problem, mechanism, threads=2, total_ops=4)
        max_depth = 12 if mechanism == "baseline" else None
        report = explore_dpor(task, max_depth=max_depth)
        assert report.complete
        assert report.schedules_visited == schedules
        assert set(report.stats) == {
            "merged_configs", "symmetry_skips", "unmerged_decisions"
        }


#: DPOR results for bounded_buffer/autosynch at 3 producers and 3 consumers
#: with an even quota, where each role is one symmetry class: ops ->
#: (schedules, merged configurations, symmetry skips).  They pin the
#: canonical key and the automorphism filter, which the 2x4 table above
#: never exercises with more than two threads a class.
PINNED_SYMMETRIC = {6: (97, 94, 22), 12: (574, 562, 55)}


#: The same at an uneven split, the benchmark's 3x9: each role's quotas
#: are 2, 1, 1, so only the two equal-quota producers and the two
#: equal-quota consumers form classes.  ops -> (classes, schedules, merged
#: configurations, symmetry skips).
PINNED_PARTIAL = {9: (((1, 2), (4, 5)), 1275, 1260, 90)}


class TestPinnedSymmetricCounts:
    @pytest.mark.parametrize("ops", sorted(PINNED_SYMMETRIC))
    def test_exact_counts(self, ops):
        schedules, merged, skips = PINNED_SYMMETRIC[ops]
        self._check(ops, ((0, 1, 2), (3, 4, 5)), schedules, merged, skips)

    @pytest.mark.parametrize("ops", sorted(PINNED_PARTIAL))
    def test_exact_counts_on_an_uneven_split(self, ops):
        self._check(ops, *PINNED_PARTIAL[ops])

    @staticmethod
    def _check(ops, classes, schedules, merged, skips):
        task = ExploreTask("bounded_buffer", "autosynch", threads=3, total_ops=ops)
        assert task.resolve_problem().symmetry_classes(3, ops) == classes
        report = explore_dpor(task)
        assert report.complete and report.ok
        assert report.schedules_visited == schedules
        assert report.stats == {
            "merged_configs": merged, "symmetry_skips": skips, "unmerged_decisions": 0,
        }


#: Plain-DFS results at the same sizes as ``PINNED_SCHEDULES``: (schedules,
#: depth-capped runs, failure kinds).  Every tree here is exhausted.  These
#: pin the unreduced side of DPOR≡DFS, so a change to the shared frontier
#: loop must keep every number, not only the verdicts.
PINNED_DFS = {
    "barrier": {"autosynch": (2, 0, {}), "autosynch_t": (2, 0, {}),
                "baseline": (2, 0, {}), "relay_batched": (2, 0, {}),
                "relay_fifo": (2, 0, {})},
    "bounded_buffer": {"autosynch": (52, 0, {}), "autosynch_t": (52, 0, {}),
                       "baseline": (226, 90, {}), "explicit": (52, 0, {}),
                       "relay_batched": (56, 0, {}), "relay_fifo": (52, 0, {})},
    "dining_philosophers": {"autosynch": (2, 0, {}), "autosynch_t": (2, 0, {}),
                            "baseline": (2, 0, {}), "explicit": (2, 0, {}),
                            "relay_batched": (2, 0, {}), "relay_fifo": (2, 0, {})},
    "fifo_semaphore": {"autosynch": (2, 0, {}), "autosynch_t": (2, 0, {}),
                       "baseline": (2, 0, {}), "relay_batched": (2, 0, {}),
                       "relay_fifo": (2, 0, {})},
    "h2o": {"autosynch": (6, 0, {}), "autosynch_t": (6, 0, {}),
            "baseline": (72, 72, {"step_limit": 2}), "explicit": (6, 0, {}),
            "relay_batched": (6, 0, {}), "relay_fifo": (6, 0, {})},
    "parameterized_bounded_buffer": {
        "autosynch": (22, 0, {}), "autosynch_t": (22, 0, {}),
        "baseline": (50, 40, {}), "explicit": (28, 0, {}),
        "relay_batched": (22, 0, {}), "relay_fifo": (22, 0, {}),
    },
    "resource_pool": {"autosynch": (2, 0, {}), "autosynch_t": (2, 0, {}),
                      "baseline": (2, 0, {}), "relay_batched": (2, 0, {}),
                      "relay_fifo": (2, 0, {})},
    "round_robin": {"autosynch": (2, 0, {}), "autosynch_t": (2, 0, {}),
                    "baseline": (2, 0, {}), "explicit": (2, 0, {}),
                    "relay_batched": (2, 0, {}), "relay_fifo": (2, 0, {})},
    "sleeping_barber": {"autosynch": (36, 0, {}), "autosynch_t": (36, 0, {}),
                        "baseline": (62, 62, {}), "explicit": (40, 0, {}),
                        "relay_batched": (36, 0, {}), "relay_fifo": (36, 0, {})},
    "traffic_intersection": {"autosynch": (165, 0, {}), "autosynch_t": (165, 0, {}),
                             "baseline": (1076, 1056, {}),
                             "relay_batched": (165, 0, {}), "relay_fifo": (165, 0, {})},
}


class TestPinnedDfsScheduleCounts:
    @pytest.mark.parametrize(
        "problem,mechanism,expected",
        [
            (problem, mechanism, expected)
            for problem, results in sorted(PINNED_DFS.items())
            for mechanism, expected in sorted(results.items())
        ],
    )
    def test_exact_schedule_count(self, problem, mechanism, expected):
        schedules, depth_capped, failure_kinds = expected
        task = ExploreTask(problem, mechanism, threads=2, total_ops=4)
        max_depth = 12 if mechanism == "baseline" else None
        report = explore_dfs(task, max_depth=max_depth)
        assert report.complete
        assert report.schedules_visited == schedules
        assert report.depth_capped == depth_capped
        assert report.failure_kinds() == failure_kinds


#: A kernel condition's label (``cond-N``) numbers conditions in creation
#: order, which differs between runs that create them in another order.
_CONDITION_LABEL = re.compile(r"cond-\d+")


def _pre_choice_state(config, classes):
    """An orbit-canonical form of a DPOR configuration, computed without
    the explorer's key: the least ``repr`` over every per-class renaming.
    The chosen thread reads as ``runnable`` (the state before the choice),
    condition labels are erased and condition queues form a sorted
    multiset, since labels follow condition creation order."""
    vars_proj, threads, locks, conds = config
    threads = tuple(
        (t, "runnable" if s == "running" else s,
         br and _CONDITION_LABEL.sub("cond", br), fp)
        for t, s, br, fp in threads
    )

    def renamed(mapping):
        r = lambda tid: mapping.get(tid, tid)  # noqa: E731
        return repr((
            vars_proj,
            tuple(sorted((r(t), s, br, fp) for t, s, br, fp in threads)),
            tuple((i, r(o), tuple(map(r, q))) for i, o, q in locks),
            tuple(sorted(tuple(map(r, q)) for _i, q in conds)),
        ))

    return min(
        renamed({old: new for cls, perm in zip(classes, combo)
                 for old, new in zip(cls, perm)})
        for combo in itertools.product(*map(itertools.permutations, classes))
    )


def _explore_states(monkeypatch, task, symmetric, **kwargs):
    """DPOR on *task*, with or without the problem's symmetry classes, and
    every configuration its probe built (merged ones included)."""
    configs = set()
    observe = _ConfigProbe.observe

    def recording(probe, point):
        built = len(probe.configs)
        try:
            observe(probe, point)
        finally:
            if len(probe.configs) > built:
                configs.add(probe.configs[-1])

    with monkeypatch.context() as patch:
        patch.setattr(_ConfigProbe, "observe", recording)
        if not symmetric:
            patch.setattr(
                BoundedBufferProblem, "symmetry_classes", lambda self, *a, **k: ()
            )
        report = explore_dpor(task, **kwargs)
    assert report.complete
    return report, configs


class TestPartialSymmetry:
    """On an uneven split only the equal-quota threads of a role form a
    class.  Folding them must lose no state: DPOR with and without the
    classes reaches the same canonical pre-choice states."""

    def test_same_states_with_and_without_symmetry(self, monkeypatch):
        task = ExploreTask(
            "bounded_buffer", "autosynch", threads=3, total_ops=8,
            problem_params={"capacity": 1},
        )
        # The renamings that truly map the workload onto itself: threads
        # 1, 2 (and 4, 5) run one program with one quota, 0 and 3 another.
        classes = ((1, 2), (4, 5))
        assert task.resolve_problem().symmetry_classes(3, 8) == classes
        folded, folded_configs = _explore_states(monkeypatch, task, True)
        plain, plain_configs = _explore_states(monkeypatch, task, False)
        assert (folded.schedules_visited, plain.schedules_visited) == (1505, 5285)
        assert folded.stats["symmetry_skips"] == 112
        states = {_pre_choice_state(c, classes) for c in folded_configs}
        assert states == {_pre_choice_state(c, classes) for c in plain_configs}
        assert len(states) == 2382
        assert folded.ok and plain.ok

    def test_baseline_failure_kinds_under_a_depth_bound(self, monkeypatch):
        """The broadcast baseline livelocks under the default continuation
        past the bound (a lower step limit keeps each such run short);
        both searches must report the same kinds."""
        task = ExploreTask(
            "bounded_buffer", "baseline", threads=3, total_ops=8,
            problem_params={"capacity": 1}, max_steps=1000,
        )
        folded, _ = _explore_states(monkeypatch, task, True, max_depth=4)
        plain, _ = _explore_states(monkeypatch, task, False, max_depth=4)
        assert folded.stats["symmetry_skips"] > 0
        assert folded.schedules_visited < plain.schedules_visited
        assert set(folded.failure_kinds()) == set(plain.failure_kinds()) == {
            "step_limit"
        }


class TestFingerprint:
    def test_in_place_container_mutation_advances_the_fingerprint(self):
        """A slice whose only effect is ``items.append`` never reaches the
        monitor's ``__setattr__``, so the write tracker does not see it.
        The fingerprint must: the thread is one step further in its
        program even where the projection hides the change."""

        class Log(AutoSynchMonitor):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.items = []

        class TwoThreads:
            def sync_state(self):
                threads = ((0, "running", None), (1, "runnable", None))
                return threads, ((0, None, ()),), ()

        monitor = Log(backend=SimulationBackend(seed=0))
        tracker = monitor._write_tracker
        clock = tracker.clock if tracker is not None else None
        probe = _ConfigProbe(
            TwoThreads(), monitor, project=lambda name, value: "hidden",
            sym=(), seen=set(),
        )
        probe.observe(SchedulePoint(step=0, runnable=(0, 1), chosen=0, reason="start"))
        monitor.items.append("entry")
        probe.observe(SchedulePoint(step=1, runnable=(0, 1), chosen=1, reason="yield"))
        if tracker is not None:
            assert tracker.clock == clock
        before, after = probe.configs
        assert before[0] == after[0]
        assert [entry[3] for entry in before[1]] == [0, 0]
        assert [entry[3] for entry in after[1]] == [1, 0]
        assert probe.keys[0] != probe.keys[1]


class TestConfigurationFields:
    def test_private_user_fields_are_part_of_the_configuration(self):
        """The configuration is every field in ``vars(monitor)``: user
        state under a private name may steer the monitor's future too, so
        dropping it could merge configurations that differ."""

        class Stash(AutoSynchMonitor):
            def __init__(self, hidden, **kwargs):
                super().__init__(**kwargs)
                self.count = 0
                self._hidden = hidden

        class OneThread:
            def sync_state(self):
                return ((0, "running", None),), ((0, None, ()),), ()

        configs = []
        for hidden in (1, 2):
            monitor = Stash(hidden, backend=SimulationBackend(seed=0))
            probe = _ConfigProbe(OneThread(), monitor, project=None, sym=(), seen=set())
            probe.observe(SchedulePoint(step=0, runnable=(0,), chosen=0, reason="start"))
            configs.append(probe.configs[0])
        first, second = configs
        assert first[0] == (("_hidden", "count"), (1, 0))
        assert second[0] == (("_hidden", "count"), (2, 0))
        assert first != second


    def test_wait_timeout_stays_out_of_an_explicit_monitors_fields(self):
        """A task's wait_timeout is written only where the slot exists: an
        explicit monitor keeps exactly its own fields, and the reduced
        search over it is unchanged."""
        seen = []

        def instrument(backend, spec):
            seen.append(sorted(vars(spec.monitor)))

        timed = ExploreTask(
            "bounded_buffer", "explicit", threads=2, total_ops=4, wait_timeout=50
        )
        plain = ExploreTask("bounded_buffer", "explicit", threads=2, total_ops=4)
        run_prefix(timed, (), instrument=instrument)
        run_prefix(plain, (), instrument=instrument)
        assert seen[0] == seen[1]
        assert not [name for name in seen[0] if name.startswith("_")]
        report = explore_dpor(timed)
        assert report.complete and report.ok
        assert (report.schedules_visited, report.stats["merged_configs"]) == (16, 14)


class TestUnmergedDecisions:
    def test_starvation_oracle_before_the_probe_branches_unreduced(self):
        """When an oracle fires at a decision, the probe never sees that
        decision's configuration; its alternatives are branched without
        merging, and DPOR still finds exactly what plain DFS finds."""
        task = ExploreTask(
            "parameterized_bounded_buffer", "autosynch", threads=2, total_ops=4,
            starvation_budget=6,
        )
        reduced = explore_dpor(task)
        full = explore_dfs(task)
        assert reduced.complete and full.complete
        assert reduced.schedules_visited == 22
        assert reduced.stats["unmerged_decisions"] == 2
        assert reduced.failure_kinds() == {"oracle:starvation_budget": 2}
        assert {f.kind for f in reduced.failures} == {f.kind for f in full.failures}


class TestDporCli:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--dpor", "--jobs", "2"],
            ["--dpor", "--executor", "process"],
            ["--dpor", "--executor", "process", "--jobs", "1"],
            ["--jobs", "2"],
            ["--executor", "process"],
            ["--executor", "process", "--jobs", "1"],
        ],
    )
    def test_parallel_dpor_is_refused(self, extra, tmp_path):
        with pytest.raises(SystemExit, match="--mode dfs runs serially"):
            explore_main(
                ["--problem", "bounded_buffer", "--mechanism", "autosynch",
                 "--mode", "dfs", "--out", str(tmp_path)] + extra
            )
