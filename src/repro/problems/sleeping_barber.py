"""The sleeping-barber problem (§6.3.1, Fig. 10).

One barber serves customers one at a time; customers wait in a bounded
waiting room and leave ("balk") when it is full.  All ``waituntil``
predicates are shared predicates over the shop state (no thread-local
variables), matching the paper's classification of this problem.

``threads`` in :meth:`SleepingBarberProblem.build` is the number of customer
threads; one extra barber thread is always created.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.monitor import AutoSynchMonitor, ExplicitMonitor
from repro.problems.base import Oracle, Problem, WorkloadSpec
from repro.runtime.api import Backend

__all__ = ["AutoBarberShop", "ExplicitBarberShop", "SleepingBarberProblem"]

DEFAULT_CHAIRS = 8


class AutoBarberShop(AutoSynchMonitor):
    """Automatic-signal barber shop."""

    def __init__(
        self,
        chairs: int = DEFAULT_CHAIRS,
        num_customers: int = 1,
        **monitor_kwargs: object,
    ) -> None:
        super().__init__(**monitor_kwargs)
        if chairs < 1:
            raise ValueError("the waiting room needs at least one chair")
        self.chairs = chairs
        self.num_customers = num_customers
        self.waiting = 0
        self.chair_occupied = False
        self.haircut_done = False
        self.haircuts_given = 0
        self.haircuts_received = 0
        self.balked = 0
        self.customers_finished = 0

    def visit(self) -> bool:
        """One customer visit: returns False if the waiting room was full."""
        if self.waiting == self.chairs:
            self.balked += 1
            return False
        self.waiting += 1
        self.wait_until("not chair_occupied")
        self.waiting -= 1
        self.chair_occupied = True
        self.haircut_done = False
        self.wait_until("haircut_done")
        self.chair_occupied = False
        self.haircuts_received += 1
        return True

    def barber_work(self) -> bool:
        """Cut one customer's hair; returns False when the shop can close."""
        self.wait_until(
            "(chair_occupied and not haircut_done) or customers_finished == num_customers"
        )
        if self.chair_occupied and not self.haircut_done:
            self.haircut_done = True
            self.haircuts_given += 1
            return True
        return False

    def customer_done(self) -> None:
        """A customer thread finished all its visits."""
        self.customers_finished += 1


class ExplicitBarberShop(ExplicitMonitor):
    """Explicit-signal barber shop with three condition variables."""

    def __init__(
        self,
        chairs: int = DEFAULT_CHAIRS,
        num_customers: int = 1,
        **monitor_kwargs: object,
    ) -> None:
        super().__init__(**monitor_kwargs)
        if chairs < 1:
            raise ValueError("the waiting room needs at least one chair")
        self.chairs = chairs
        self.num_customers = num_customers
        self.waiting = 0
        self.chair_occupied = False
        self.haircut_done = False
        self.haircuts_given = 0
        self.haircuts_received = 0
        self.balked = 0
        self.customers_finished = 0
        self.chair_free = self.new_condition("chair_free")
        self.customer_ready = self.new_condition("customer_ready")
        self.cut_finished = self.new_condition("cut_finished")

    def visit(self) -> bool:
        if self.waiting == self.chairs:
            self.balked += 1
            return False
        self.waiting += 1
        while self.chair_occupied:
            self.wait_on(self.chair_free)
        self.waiting -= 1
        self.chair_occupied = True
        self.haircut_done = False
        self.signal(self.customer_ready)
        while not self.haircut_done:
            self.wait_on(self.cut_finished)
        self.chair_occupied = False
        self.haircuts_received += 1
        self.signal(self.chair_free)
        return True

    def barber_work(self) -> bool:
        while not (
            (self.chair_occupied and not self.haircut_done)
            or self.customers_finished == self.num_customers
        ):
            self.wait_on(self.customer_ready)
        if self.chair_occupied and not self.haircut_done:
            self.haircut_done = True
            self.haircuts_given += 1
            self.signal(self.cut_finished)
            return True
        return False

    def customer_done(self) -> None:
        self.customers_finished += 1
        # The barber may be asleep waiting for customers; wake it so it can
        # notice the shop is closing.
        self.signal(self.customer_ready)


class SleepingBarberProblem(Problem):
    """Saturation workload: ``threads`` customers, one barber."""

    name = "sleeping_barber"
    description = "one barber, bounded waiting room, customers may balk"
    uses_complex_predicates = False

    def oracles(self, monitor) -> Tuple[Oracle, ...]:
        def waiting_room_bounds() -> Optional[str]:
            if not 0 <= monitor.waiting <= monitor.chairs:
                return (
                    f"waiting={monitor.waiting} outside "
                    f"[0, chairs={monitor.chairs}]"
                )
            return None

        def haircut_accounting() -> Optional[str]:
            # The barber finishes a cut before the customer stands up, so at
            # most one given-but-not-yet-received haircut can be in flight.
            in_flight = monitor.haircuts_given - monitor.haircuts_received
            if in_flight not in (0, 1):
                return (
                    f"given {monitor.haircuts_given} vs received "
                    f"{monitor.haircuts_received}: {in_flight} cuts in flight"
                )
            return None

        return (
            Oracle("waiting_room_bounds", waiting_room_bounds),
            Oracle("haircut_accounting", haircut_accounting),
        )

    def build(
        self,
        mechanism: str,
        backend: Backend,
        threads: int,
        total_ops: int,
        seed: int = 0,
        validate: bool = False,
        chairs: int = DEFAULT_CHAIRS,
        **params: object,
    ) -> WorkloadSpec:
        self._check_mechanism(mechanism)
        if threads < 1:
            raise ValueError("need at least one customer thread")

        if mechanism == "explicit":
            monitor = ExplicitBarberShop(
                chairs, num_customers=threads, backend=backend
            )
        else:
            monitor = AutoBarberShop(
                chairs,
                num_customers=threads,
                **self.monitor_kwargs(mechanism, backend, validate),
            )

        visits_per_customer = self._split_ops(max(total_ops, threads), threads)

        def make_customer(visits: int):
            def customer() -> None:
                try:
                    for _ in range(visits):
                        monitor.visit()
                finally:
                    monitor.customer_done()

            return customer

        def barber() -> None:
            while monitor.barber_work():
                pass

        targets = [barber]
        names = ["barber"]
        for index, visits in enumerate(visits_per_customer):
            targets.append(make_customer(visits))
            names.append(f"customer-{index}")

        total_visits = sum(visits_per_customer)

        def verify() -> None:
            assert monitor.customers_finished == threads
            assert monitor.haircuts_given == monitor.haircuts_received
            assert monitor.haircuts_given + monitor.balked == total_visits
            assert not monitor.chair_occupied
            assert monitor.waiting == 0

        return WorkloadSpec(
            monitor=monitor,
            targets=targets,
            names=names,
            verify=verify,
            operations=total_visits + total_visits,  # visits + barber actions (approx.)
        )
