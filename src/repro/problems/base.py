"""Common scaffolding for the seven synchronization problems of §6.3.

Each problem module provides a :class:`Problem` subclass that knows how to

* build the shared monitor for a given signalling *mechanism*
  (``"explicit"`` or any policy registered in :mod:`repro.core.signalling` —
  ``"baseline"``, ``"autosynch_t"``, ``"autosynch"``, ``"relay_batched"``,
  ``"relay_fifo"``, ...),
* build the worker thread bodies of a saturation test sized by the figure's
  x-axis value (``threads``) and a total operation budget, and
* verify the problem's correctness invariants after the run.

The experiment harness (:mod:`repro.harness`) is completely generic over
these objects.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import AUTOMATIC_MODES, MonitorBase
from repro.core.signalling import available_policies
from repro.runtime.api import Backend

__all__ = [
    "EXPLICIT_MECHANISM",
    "MECHANISMS",
    "AUTOMATIC_MECHANISMS",
    "all_mechanisms",
    "Oracle",
    "WorkloadSpec",
    "Problem",
]

#: The hand-written explicit-signal implementation (not a registry policy).
EXPLICIT_MECHANISM = "explicit"

#: The paper's automatic mechanisms in the figures' presentation order
#: (weakest mechanism first — the reverse of ``AUTOMATIC_MODES``);
#: membership is then re-derived from the signalling-policy registry so a
#: renamed/removed policy cannot silently diverge from what the monitor
#: actually accepts.
_PAPER_AUTOMATIC_ORDER = tuple(reversed(AUTOMATIC_MODES))

#: The paper's automatic mechanisms (the legacy comparison set).
AUTOMATIC_MECHANISMS = tuple(
    name for name in _PAPER_AUTOMATIC_ORDER if name in available_policies()
)

#: Default comparison set of the paper's figures, in presentation order.
MECHANISMS = (EXPLICIT_MECHANISM,) + AUTOMATIC_MECHANISMS


def all_mechanisms() -> Tuple[str, ...]:
    """Every runnable mechanism: ``"explicit"`` plus all registered policies.

    Unlike :data:`MECHANISMS` (the paper's frozen comparison set) this
    reflects the live registry, so custom policies show up automatically.
    """
    return (EXPLICIT_MECHANISM,) + available_policies()


@dataclass(frozen=True)
class Oracle:
    """A named invariant over one monitor, checkable at any quiescent point.

    Oracles are the schedule explorer's probes: :mod:`repro.explore` evaluates
    every oracle at every scheduling decision point (where exactly one
    simulated thread is between synchronization operations, so monitor state
    is stable and race-free to read).  ``check`` returns ``None`` while the
    invariant holds and a human-readable violation description otherwise.

    ``kind`` distinguishes safety oracles ("this state must never occur")
    from liveness oracles ("progress must keep happening"), purely for
    reporting.
    """

    name: str
    check: Callable[[], Optional[str]]
    kind: str = "safety"

    def describe(self) -> str:
        return f"{self.name} ({self.kind})"


@dataclass
class WorkloadSpec:
    """A ready-to-run saturation workload."""

    #: The shared monitor under test.
    monitor: MonitorBase
    #: One callable per worker thread.
    targets: List[Callable[[], None]]
    #: Thread names, same length as ``targets``.
    names: List[str]
    #: Post-run invariant check; raises AssertionError on violation.
    verify: Callable[[], None] = field(default=lambda: None)
    #: Total number of monitor operations the workload performs (approximate,
    #: used to normalize per-operation costs in reports).
    operations: int = 0


class Problem(abc.ABC):
    """A named synchronization problem with per-mechanism implementations."""

    #: Problem identifier used by the harness, experiments and CLI.
    name: str = "abstract"
    #: Human-readable description shown in reports.
    description: str = ""
    #: Which mechanisms this problem supports (all four by default).
    mechanisms: Tuple[str, ...] = MECHANISMS
    #: Whether every ``waituntil`` predicate is shared (§6.3.1) or complex.
    uses_complex_predicates: bool = False
    #: Default liveness budget for schedule exploration: fail a run when a
    #: thread stays blocked for this many consecutive scheduling decisions.
    #: ``None`` disables the check (the default — adversarial DFS schedules
    #: are deliberately unfair, so only opt in where starvation is a bug
    #: under *any* schedule).  Overridable per run via
    #: ``ExploreTask.starvation_budget``.
    starvation_budget: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Problem {self.name}>"

    @abc.abstractmethod
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
        """Construct the monitor and worker bodies for one saturation run.

        ``threads`` is the figure's x-axis value (its exact meaning — number
        of producers/consumers, H atoms, customers, philosophers, ... — is
        documented by each problem).  ``total_ops`` is the total operation
        budget shared by the worker threads, so runtime measures
        synchronization overhead rather than total work.  ``validate``
        enables the automatic monitor's relay-invariance checking.
        """

    def oracles(self, monitor: MonitorBase) -> Tuple[Oracle, ...]:
        """Safety/liveness oracles over *monitor*, for schedule exploration.

        The monitor is one built by :meth:`build` for this problem (either
        the automatic or the explicit variant — both expose the same public
        counters, so oracles apply to every mechanism).  The default is no
        oracles; concrete problems override this with their invariants
        (buffer bounds, reader/writer exclusion, stoichiometry, ...).
        """
        return ()

    # -- declarations consumed by partial-order reduction ---------------------

    def symmetry_classes(
        self, threads: int, total_ops: int, **params: object
    ) -> Tuple[Tuple[int, ...], ...]:
        """Groups of interchangeable worker threads, by kernel thread id.

        A class holds threads that run the *same program with the same
        quota*, so renaming one to another maps every schedule to an
        equivalent schedule.  Threads of one role whose quotas differ (an
        uneven :meth:`_split_ops`) belong to different classes, or to none;
        a class needs two members.  The DPOR explorer
        (:mod:`repro.explore.dpor`) uses these classes to canonicalise
        configurations and to skip alternatives that are automorphic images
        of ones already branched.  The default — no classes — disables
        symmetry reduction and is always sound; problems whose
        :meth:`build` spawns groups of equal workers should override this.
        """
        return ()

    def state_projection(
        self, threads: int, total_ops: int, **params: object
    ) -> Optional[Callable[[str, object], object]]:
        """Optional abstraction of monitor state for DPOR config merging.

        The DPOR explorer merges two exploration nodes when their *abstract
        configurations* — the monitor's fields plus kernel thread/lock
        state — coincide, on the argument that equal configurations have
        isomorphic schedule subtrees.  That argument needs every variable's
        abstraction to preserve the monitor's control flow and the problem's
        oracles.  The default (None) keeps full variable contents, which is
        always sound; a problem may return ``project(name, value) -> key``
        mapping a variable to a coarser key (e.g. a queue to its length)
        when it can promise that nothing observable depends on the dropped
        detail.
        """
        return None

    # -- helpers shared by concrete problems ---------------------------------

    def supported_mechanisms(self) -> Tuple[str, ...]:
        """The problem's own mechanism set plus every registered policy.

        A problem that supports any automatic mechanism runs under every
        signalling policy (its ``waituntil`` monitor is policy-agnostic), so
        registry extensions are supported without per-problem changes.
        """
        declared = self.mechanisms
        if any(name in declared for name in AUTOMATIC_MECHANISMS):
            extras = tuple(
                name for name in available_policies() if name not in declared
            )
            return declared + extras
        return declared

    def _check_mechanism(self, mechanism: str) -> None:
        supported = self.supported_mechanisms()
        if mechanism not in supported:
            raise ValueError(
                f"problem {self.name!r} does not support mechanism {mechanism!r}; "
                f"supported: {supported}"
            )

    @staticmethod
    def _split_ops(total_ops: int, workers: int) -> List[int]:
        """Split a total operation budget as evenly as possible."""
        if workers <= 0:
            return []
        base, remainder = divmod(max(total_ops, workers), workers)
        return [base + (1 if index < remainder else 0) for index in range(workers)]

    @staticmethod
    def monitor_kwargs(
        mechanism: str,
        backend: Backend,
        validate: bool = False,
    ) -> Dict[str, object]:
        """Constructor keyword arguments for the automatic monitor variants."""
        return {
            "backend": backend,
            "signalling": mechanism,
            "validate": validate,
        }
