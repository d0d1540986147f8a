"""The H2O (water-building) problem (§6.3.1, Fig. 9).

Hydrogen threads and one oxygen thread cooperate to form water molecules:
the oxygen thread may only proceed when two unmatched hydrogen atoms are
available, and each hydrogen atom waits until it has been consumed into a
molecule.  All predicates are shared predicates over two counters.

Like the paper's saturation tests, hydrogen threads run until the experiment
is over rather than for a fixed per-thread quota: a fixed quota would allow a
single laggard hydrogen thread to end up needing to supply *both* atoms of
the final molecule, which no formulation of the problem can satisfy.  The
oxygen thread therefore forms a fixed number of molecules and then shuts the
factory down; hydrogen threads keep bonding until they observe the shutdown.

``threads`` in :meth:`H2OProblem.build` is the number of hydrogen threads
(the paper's x-axis); a single oxygen thread is always created, as in the
paper's experiment.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.monitor import AutoSynchMonitor, ExplicitMonitor
from repro.problems.base import Oracle, Problem, WorkloadSpec
from repro.runtime.api import Backend

__all__ = ["AutoWaterFactory", "ExplicitWaterFactory", "H2OProblem"]


class AutoWaterFactory(AutoSynchMonitor):
    """Automatic-signal water factory.

    Invariant: ``hydrogen_waiting >= bond_tickets`` — a bond ticket is only
    published for a hydrogen atom that is already waiting, so every published
    ticket is eventually consumed and the factory drains cleanly at shutdown.
    """

    def __init__(self, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        self.hydrogen_waiting = 0
        self.bond_tickets = 0
        self.molecules = 0
        self.hydrogen_bonded = 0
        self.shutting_down = False

    def hydrogen_ready(self) -> bool:
        """One hydrogen atom arrives; returns False once the factory is closed."""
        if self.shutting_down:
            return False
        self.hydrogen_waiting += 1
        self.wait_until("bond_tickets > 0 or shutting_down")
        self.hydrogen_waiting -= 1
        if self.bond_tickets > 0:
            self.bond_tickets -= 1
            self.hydrogen_bonded += 1
            return True
        return False

    def oxygen_ready(self) -> None:
        """The oxygen thread bonds two waiting hydrogen atoms into a molecule."""
        self.wait_until("hydrogen_waiting - bond_tickets >= 2")
        self.bond_tickets += 2
        self.molecules += 1

    def shutdown(self) -> None:
        """Close the factory; waiting hydrogen atoms withdraw."""
        self.shutting_down = True


class ExplicitWaterFactory(ExplicitMonitor):
    """Explicit-signal water factory with two condition variables."""

    def __init__(self, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        self.hydrogen_waiting = 0
        self.bond_tickets = 0
        self.molecules = 0
        self.hydrogen_bonded = 0
        self.shutting_down = False
        self.enough_hydrogen = self.new_condition("enough_hydrogen")
        self.ticket_available = self.new_condition("ticket_available")

    def hydrogen_ready(self) -> bool:
        if self.shutting_down:
            return False
        self.hydrogen_waiting += 1
        if self.hydrogen_waiting - self.bond_tickets >= 2:
            self.signal(self.enough_hydrogen)
        while self.bond_tickets == 0 and not self.shutting_down:
            self.wait_on(self.ticket_available)
        self.hydrogen_waiting -= 1
        if self.bond_tickets > 0:
            self.bond_tickets -= 1
            self.hydrogen_bonded += 1
            return True
        return False

    def oxygen_ready(self) -> None:
        while self.hydrogen_waiting - self.bond_tickets < 2:
            self.wait_on(self.enough_hydrogen)
        self.bond_tickets += 2
        self.molecules += 1
        # Two tickets were just published: wake two hydrogen atoms.
        self.signal(self.ticket_available)
        self.signal(self.ticket_available)

    def shutdown(self) -> None:
        self.shutting_down = True
        self.signal_all(self.ticket_available)


class H2OProblem(Problem):
    """Saturation workload: ``threads`` hydrogen threads, one oxygen thread."""

    name = "h2o"
    description = "water building: one oxygen thread bonds pairs of hydrogen atoms"
    uses_complex_predicates = False

    def oracles(self, monitor) -> Tuple[Oracle, ...]:
        def stoichiometry() -> Optional[str]:
            # Every molecule publishes exactly two bond tickets, each
            # consumed by exactly one hydrogen atom, so at every quiescent
            # point: outstanding tickets == 2 * molecules - bonded atoms.
            outstanding = 2 * monitor.molecules - monitor.hydrogen_bonded
            if monitor.bond_tickets != outstanding:
                return (
                    f"{monitor.molecules} molecules and "
                    f"{monitor.hydrogen_bonded} bonded atoms imply "
                    f"{outstanding} outstanding tickets, found "
                    f"{monitor.bond_tickets}"
                )
            if monitor.bond_tickets < 0:
                return f"negative bond tickets {monitor.bond_tickets}"
            return None

        def ticket_cover() -> Optional[str]:
            # A ticket is only published for an already-waiting atom, so
            # published-but-unconsumed tickets never outnumber waiting atoms.
            if monitor.bond_tickets > monitor.hydrogen_waiting:
                return (
                    f"{monitor.bond_tickets} tickets outstanding but only "
                    f"{monitor.hydrogen_waiting} hydrogen atoms waiting"
                )
            if monitor.hydrogen_waiting < 0:
                return f"negative hydrogen_waiting {monitor.hydrogen_waiting}"
            return None

        return (
            Oracle("h2o_stoichiometry", stoichiometry),
            Oracle("h2o_ticket_cover", ticket_cover),
        )

    def build(
        self,
        mechanism: str,
        backend: Backend,
        threads: int,
        total_ops: int,
        seed: int = 0,
        validate: bool = False,
        **params: object,
    ) -> WorkloadSpec:
        self._check_mechanism(mechanism)
        if threads < 2:
            raise ValueError("the H2O problem needs at least two hydrogen threads")

        if mechanism == "explicit":
            monitor = ExplicitWaterFactory(backend=backend)
        else:
            monitor = AutoWaterFactory(
                **self.monitor_kwargs(mechanism, backend, validate)
            )

        # Each molecule is one oxygen_ready() call plus two hydrogen_ready()
        # calls, so the operation budget buys total_ops // 3 molecules.
        molecules = max(threads, total_ops // 3)

        def hydrogen() -> None:
            while monitor.hydrogen_ready():
                pass

        def oxygen() -> None:
            for _ in range(molecules):
                monitor.oxygen_ready()
            monitor.shutdown()

        targets = [oxygen] + [hydrogen for _ in range(threads)]
        names = ["oxygen-0"] + [f"hydrogen-{index}" for index in range(threads)]

        def verify() -> None:
            assert monitor.molecules == molecules
            assert monitor.hydrogen_bonded == 2 * molecules
            assert monitor.bond_tickets == 0
            assert monitor.hydrogen_waiting == 0

        return WorkloadSpec(
            monitor=monitor,
            targets=targets,
            names=names,
            verify=verify,
            operations=3 * molecules,
        )
