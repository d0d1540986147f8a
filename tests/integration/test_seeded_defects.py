"""Seeded-defect suite: the explorer must catch known-bad implementations.

Two defects are planted:

* a *lossy* signalling policy (registered only for these tests) that drops
  the first signalling opportunity — the canonical "missed signal" bug the
  paper's relay mechanism is designed to rule out; and
* an unordered dining-philosophers variant that grabs forks one at a time —
  the canonical lock-order deadlock.

For each, schedule exploration must find the failure, greedy shrinking must
preserve it, and the written repro file must replay to the same failure
bit-identically.
"""

from __future__ import annotations

import pytest

from repro.core.monitor import ExplicitMonitor
from repro.core.signalling import register_policy, unregister_policy
from repro.core.signalling.relay import RelayTaggedPolicy
from repro.explore import (
    ExploreTask,
    explore_dfs,
    load_repro,
    replay_repro,
    repro_payload,
    shrink_failure,
    write_repro,
)
from repro.problems.base import Problem, WorkloadSpec

LOSSY = "lossy_relay_test"


class LossyRelayPolicy(RelayTaggedPolicy):
    """Tag-directed relay that silently drops one signalling opportunity.

    The first time a monitor exit *should* wake a ready waiter, the policy
    pretends it signalled and does nothing.  If other threads keep entering
    the monitor the waiter is rescued by a later relay — so the bug only
    bites under schedules where the dropped signal was the last chance,
    which is exactly what the explorer has to find.
    """

    name = LOSSY
    description = "relay that drops the first signalling opportunity (defect)"

    def __init__(self) -> None:
        super().__init__()
        self._dropped = False

    def on_monitor_exit(self) -> None:
        if not self._dropped and self._manager.find_missed_waiter() is not None:
            self._dropped = True
            return
        super().on_monitor_exit()


@pytest.fixture
def lossy_policy():
    register_policy(LossyRelayPolicy)
    try:
        yield LOSSY
    finally:
        unregister_policy(LOSSY)


class UnorderedDiningProblem(Problem):
    """Philosophers grab the left fork, think, then grab the right fork.

    Without the monitor's atomic two-fork grab, the classic circular wait is
    reachable: every philosopher holds their left fork and blocks on the
    right one.
    """

    name = "unordered_dining_test"
    description = "fork-at-a-time dining philosophers (deliberate deadlock)"
    mechanisms = ("explicit",)

    def build(
        self,
        mechanism,
        backend,
        threads,
        total_ops,
        seed=0,
        profile=False,
        validate=False,
        **params,
    ) -> WorkloadSpec:
        self._check_mechanism(mechanism)
        seats = max(2, threads)
        forks = [backend.create_lock(label=f"fork-{index}") for index in range(seats)]
        meals = [0]
        rounds = max(1, total_ops // seats)

        def make_philosopher(seat):
            left = forks[seat]
            right = forks[(seat + 1) % seats]

            def philosopher():
                for _ in range(rounds):
                    left.acquire()
                    backend.yield_control()  # think with one fork in hand
                    right.acquire()
                    meals[0] += 1
                    right.release()
                    left.release()

            return philosopher

        def verify():
            assert meals[0] == rounds * seats

        return WorkloadSpec(
            monitor=ExplicitMonitor(backend=backend),
            targets=[make_philosopher(seat) for seat in range(seats)],
            names=[f"philosopher-{seat}" for seat in range(seats)],
            verify=verify,
            operations=rounds * seats,
        )


# Registered under a private name so run_schedule can resolve it.
from repro.problems import PROBLEMS  # noqa: E402


@pytest.fixture
def unordered_dining():
    problem = UnorderedDiningProblem()
    PROBLEMS[problem.name] = problem
    try:
        yield problem.name
    finally:
        del PROBLEMS[problem.name]


class TestLossyPolicyIsCaught:
    def test_dfs_finds_missed_signal_and_repro_replays(self, lossy_policy, tmp_path):
        task = ExploreTask(
            problem="bounded_buffer",
            mechanism=lossy_policy,
            threads=1,
            total_ops=2,
            problem_params={"capacity": 1},
        )
        report = explore_dfs(task)
        assert report.complete
        assert report.failures_total > 0, "the dropped signal went undetected"
        kinds = {failure.kind for failure in report.failures}
        assert "missed_signal" in kinds, (
            f"expected a missed_signal classification, got {kinds}"
        )

        failure = next(f for f in report.failures if f.kind == "missed_signal")
        # Shrinking must preserve the failure kind.
        result = shrink_failure(task, failure.prefix, failure.kind)
        assert result.outcome.kind == "missed_signal"
        assert len(result.prefix) <= len(failure.prefix)

        # The repro file must replay bit-identically.
        shrunk = failure.__class__(
            kind=failure.kind,
            message=result.outcome.message,
            prefix=result.prefix,
            trace=result.outcome.trace,
            digest=result.outcome.digest,
        )
        path = write_repro(
            tmp_path / "lossy.json", repro_payload(task, shrunk, "dfs")
        )
        payload = load_repro(path)
        replay = replay_repro(payload)
        assert replay.reproduced, replay.describe()
        assert replay.outcome.kind == "missed_signal"

    @pytest.mark.parametrize("legacy_engine", ["compiled", "interpreted"])
    def test_repro_with_legacy_eval_engine_key_replays(
        self, lossy_policy, tmp_path, legacy_engine
    ):
        # Repro files written before predicates had one evaluation path
        # carry an ``eval_engine`` key in their task; both of its values
        # must still load and replay to the recorded digest.
        task = ExploreTask(
            problem="bounded_buffer",
            mechanism=lossy_policy,
            threads=1,
            total_ops=2,
            problem_params={"capacity": 1},
        )
        report = explore_dfs(task)
        failure = next(f for f in report.failures if f.kind == "missed_signal")
        payload = repro_payload(task, failure, "dfs")
        payload["task"]["eval_engine"] = legacy_engine
        path = write_repro(tmp_path / f"legacy-{legacy_engine}.json", payload)
        loaded = load_repro(path)
        assert loaded["task"]["eval_engine"] == legacy_engine
        replay = replay_repro(loaded)
        assert replay.reproduced, replay.describe()
        assert replay.outcome.digest == failure.digest
        assert replay.outcome.kind == "missed_signal"

    def test_correct_policy_passes_same_exploration(self):
        # Control: the same configuration under the real autosynch policy
        # has zero failing schedules, so the detection above is the defect's.
        task = ExploreTask(
            problem="bounded_buffer",
            mechanism="autosynch",
            threads=1,
            total_ops=2,
            problem_params={"capacity": 1},
        )
        report = explore_dfs(task)
        assert report.complete
        assert report.failures_total == 0


class TestUnorderedDiningIsCaught:
    def test_dfs_finds_deadlock_and_repro_replays(self, unordered_dining, tmp_path):
        task = ExploreTask(
            problem=unordered_dining,
            mechanism="explicit",
            threads=2,
            total_ops=2,
        )
        report = explore_dfs(task)
        assert report.complete
        assert report.failures_total > 0, "the circular wait went undetected"
        kinds = {failure.kind for failure in report.failures}
        assert kinds == {"deadlock"}

        failure = report.failures[0]
        assert "waiting for lock fork-" in failure.message

        result = shrink_failure(task, failure.prefix, "deadlock")
        assert result.outcome.kind == "deadlock"
        assert len(result.prefix) <= len(failure.prefix)

        shrunk = failure.__class__(
            kind="deadlock",
            message=result.outcome.message,
            prefix=result.prefix,
            trace=result.outcome.trace,
            digest=result.outcome.digest,
        )
        path = write_repro(
            tmp_path / "dining.json", repro_payload(task, shrunk, "dfs")
        )
        replay = replay_repro(load_repro(path))
        assert replay.reproduced, replay.describe()
        assert replay.outcome.kind == "deadlock"

    def test_ordered_monitor_variant_is_clean(self):
        # Control: the real dining_philosophers problem (atomic two-fork
        # grab) survives the same exhaustive exploration.
        task = ExploreTask(
            problem="dining_philosophers",
            mechanism="autosynch",
            threads=2,
            total_ops=4,
        )
        report = explore_dfs(task)
        assert report.complete
        assert report.failures_total == 0
