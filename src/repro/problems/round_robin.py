"""The round-robin access pattern (§6.3.2, Fig. 11 and Table 1).

``threads`` worker threads access the monitor strictly in thread-id order:
thread *i* may only proceed when ``turn == i``.  The ``waituntil`` predicate
is a *complex* equivalence predicate (it mentions the caller's id), which is
exactly the case where predicate tagging pays off: AutoSynch finds the one
true predicate with a hash lookup, while AutoSynch-T has to scan every
waiting predicate and the explicit version signals the next thread's
dedicated condition variable directly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.monitor import AutoSynchMonitor, ExplicitMonitor
from repro.problems.base import Oracle, Problem, WorkloadSpec
from repro.runtime.api import Backend

__all__ = ["AutoRoundRobin", "ExplicitRoundRobin", "RoundRobinProblem"]


class AutoRoundRobin(AutoSynchMonitor):
    """Automatic-signal round-robin turnstile."""

    def __init__(self, num_threads: int, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        if num_threads < 1:
            raise ValueError("need at least one participant")
        self.num_threads = num_threads
        self.turn = 0
        self.accesses = 0
        self.order_violations = 0

    def access(self, thread_id: int) -> None:
        """Enter the monitor when it is *thread_id*'s turn and pass the turn on."""
        self.wait_until("turn == me", me=thread_id)
        if self.turn != thread_id:
            self.order_violations += 1
        self.accesses += 1
        self.turn = (self.turn + 1) % self.num_threads


class ExplicitRoundRobin(ExplicitMonitor):
    """Explicit-signal round-robin turnstile with one condition per thread."""

    def __init__(self, num_threads: int, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        if num_threads < 1:
            raise ValueError("need at least one participant")
        self.num_threads = num_threads
        self.turn = 0
        self.accesses = 0
        self.order_violations = 0
        self.turn_conditions = [
            self.new_condition(f"turn-{index}") for index in range(num_threads)
        ]

    def access(self, thread_id: int) -> None:
        while self.turn != thread_id:
            self.wait_on(self.turn_conditions[thread_id])
        self.accesses += 1
        self.turn = (self.turn + 1) % self.num_threads
        # The programmer knows exactly which thread goes next.
        self.signal(self.turn_conditions[self.turn])


class RoundRobinProblem(Problem):
    """Saturation workload: every thread takes the same number of turns."""

    name = "round_robin"
    description = "threads access the monitor strictly in round-robin order"
    uses_complex_predicates = True

    def oracles(self, monitor) -> Tuple[Oracle, ...]:
        def turn_order() -> Optional[str]:
            if not 0 <= monitor.turn < monitor.num_threads:
                return (
                    f"turn={monitor.turn} outside "
                    f"[0, num_threads={monitor.num_threads})"
                )
            if monitor.order_violations:
                return (
                    f"{monitor.order_violations} out-of-turn access(es) "
                    "observed by the monitor"
                )
            return None

        return (Oracle("round_robin_order", turn_order),)

    def build(
        self,
        mechanism: str,
        backend: Backend,
        threads: int,
        total_ops: int,
        seed: int = 0,
        profile: bool = False,
        validate: bool = False,
        **params: object,
    ) -> WorkloadSpec:
        self._check_mechanism(mechanism)
        if threads < 1:
            raise ValueError("need at least one thread")

        if mechanism == "explicit":
            monitor = ExplicitRoundRobin(threads, backend=backend, profile=profile)
        else:
            monitor = AutoRoundRobin(
                threads, **self.monitor_kwargs(mechanism, backend, profile, validate)
            )

        # Every thread must take the same number of turns or the rotation
        # would wedge waiting for a thread that has already finished.
        rounds = max(1, total_ops // threads)

        def make_worker(thread_id: int):
            def worker() -> None:
                for _ in range(rounds):
                    monitor.access(thread_id)

            return worker

        targets: List = [make_worker(thread_id) for thread_id in range(threads)]
        names = [f"worker-{thread_id}" for thread_id in range(threads)]

        def verify() -> None:
            assert monitor.accesses == rounds * threads
            assert monitor.order_violations == 0
            assert monitor.turn == 0

        return WorkloadSpec(
            monitor=monitor,
            targets=targets,
            names=names,
            verify=verify,
            operations=rounds * threads,
        )
