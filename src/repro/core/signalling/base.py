"""The signalling-policy abstraction.

A :class:`SignallingPolicy` decides *which waiting thread wakes up when* for
one :class:`~repro.core.monitor.AutoSynchMonitor` instance.  The monitor owns
the lock, the stats, the predicate compiler and the two drivers that park a
waiter (one blocking, one awaiting); the policy owns the one wait loop,
:meth:`~SignallingPolicy.wait_steps`, and fills it in through four hooks:

* :meth:`~SignallingPolicy._enlist` — a ``wait_until`` predicate evaluated
  to false; say where the waiter parks, its trace label, what a wakeup
  re-checks (and with which locals) and its predicate entry, if any;
* :meth:`~SignallingPolicy._delist` — the wait is over (satisfied, timed
  out or abandoned); undo the registration;
* :meth:`~SignallingPolicy._hand_off` — a thread is leaving the monitor,
  by an entry method return or by going to wait; pass the monitor on to
  waiting threads as the policy sees fit (relay one, relay a batch,
  broadcast, ...);
* :meth:`~SignallingPolicy.consume` — a notified waiter consumed one
  promised signal (only meaningful for policies that track pending signals
  through a :class:`~repro.core.condition_manager.ConditionManager`).

:meth:`~SignallingPolicy.on_monitor_exit` (an entry method return; by
default one hand-off) and :meth:`~SignallingPolicy.describe` (a one-line
label used by harness reports) round off the interface.

Policies are registered by name in :mod:`repro.core.signalling.registry`;
``AutoSynchMonitor(signalling=...)`` accepts a registered name, a policy
class, or an (unbound) policy instance, so custom policies plug in without
touching the monitor.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar, Mapping, Optional

from repro.core.errors import MonitorUsageError, WaitTimeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.condition_manager import ConditionManager, PredicateEntry
    from repro.core.monitor import AutoSynchMonitor
    from repro.predicates.predicate import CompiledPredicate

__all__ = ["SignallingPolicy", "RelayPolicyBase"]


class SignallingPolicy(abc.ABC):
    """Strategy object deciding how one monitor signals its waiters.

    A policy instance is bound to exactly one monitor (via :meth:`bind`,
    called from the monitor constructor); per-monitor state such as condition
    variables or a condition manager is created in :meth:`_setup`.
    """

    #: Registry name of the policy (also reported by ``monitor.signalling``).
    name: ClassVar[str] = "abstract"
    #: One-line human-readable label (the default :meth:`describe` result).
    description: ClassVar[str] = ""

    def __init__(self) -> None:
        self._monitor: Optional["AutoSynchMonitor"] = None

    # -- binding ------------------------------------------------------------

    @property
    def monitor(self) -> "AutoSynchMonitor":
        """The monitor this policy is bound to."""
        if self._monitor is None:
            raise MonitorUsageError(
                f"signalling policy {self.name!r} is not bound to a monitor yet"
            )
        return self._monitor

    @property
    def condition_manager(self) -> Optional["ConditionManager"]:
        """The policy's condition manager, if it uses one (None otherwise)."""
        return None

    def bind(self, monitor: "AutoSynchMonitor") -> None:
        """Attach this policy to *monitor* and build its per-monitor state."""
        if self._monitor is not None:
            raise MonitorUsageError(
                f"signalling policy {self.name!r} is already bound to a monitor; "
                "policy instances cannot be shared between monitors"
            )
        self._monitor = monitor
        self._setup(monitor)

    def rebind(self) -> None:
        """Bind again to the same monitor, as a workload restored between
        schedules needs: :meth:`_setup` builds the per-monitor state afresh
        (a relay policy's condition manager starts empty).  A kernel object
        the build made, such as the broadcast policy's condition, is kept,
        as the restore registers it with the kernel again (see
        ``SimulationBackend.adopt``)."""
        monitor, self._monitor = self._monitor, None
        self.bind(monitor)

    def _setup(self, monitor: "AutoSynchMonitor") -> None:
        """Create per-monitor state (condition variables, manager, ...)."""

    # -- the strategy hooks --------------------------------------------------

    @abc.abstractmethod
    def _enlist(
        self, compiled: "CompiledPredicate", local_values: Mapping[str, object]
    ) -> tuple:
        """Register a waiter on *compiled* (false with *local_values*).

        Returns ``(condition, label, recheck, recheck_locals, entry)``: the
        condition the waiter parks on, the predicate text its traces carry,
        the predicate a wakeup re-evaluates with ``recheck_locals``, and the
        predicate entry handed to :meth:`consume` and :meth:`_delist` (None
        for a policy without one).
        """

    def _delist(self, entry: Optional["PredicateEntry"]) -> None:
        """The wait on *entry* is over: undo what :meth:`_enlist` did."""

    @abc.abstractmethod
    def _hand_off(self) -> None:
        """A thread is leaving the monitor (returning or going to wait):
        pass it on to waiting threads."""

    def on_monitor_exit(self) -> None:
        """A thread is returning from an entry method: hand the monitor on."""
        self._hand_off()

    def consume(self, entry: Optional["PredicateEntry"]) -> None:
        """A notified waiter on *entry* consumed one promised signal."""

    def describe(self) -> str:
        """One-line label used by reports and the CLI (defaults to
        :attr:`description`, falling back to the policy name)."""
        return self.description or self.name

    # -- the wait loop ---------------------------------------------------------

    def wait_steps(
        self,
        compiled: "CompiledPredicate",
        local_values: Mapping[str, object],
        timeout: Optional[float] = None,
    ):
        """The ``waituntil`` loop as a generator of park requests.

        Called with the monitor lock held, after *compiled* evaluated to
        false once.  Yields ``(condition, remaining_timeout)`` each time the
        calling thread must park, and receives the park's ``notified`` flag
        back via ``send()``.  Returns (``StopIteration``) once the predicate
        holds; raises :class:`~repro.core.errors.WaitTimeout` when the
        deadline (in the backend's :meth:`Backend.now` units) passes with
        the predicate still false.  Every park is preceded by a
        :meth:`_hand_off`, and the registration is undone in ``finally``
        however the wait ends.  The monitor's two drivers run it —
        ``MonitorBase._park_blocking`` and ``async_driver._park`` — so
        blocking and coroutine waiters cannot diverge.
        """
        monitor = self.monitor
        stats = monitor.stats
        backend = monitor.backend
        condition, label, recheck, recheck_locals, entry = self._enlist(
            compiled, local_values
        )
        # The single place deadlines are computed: backend.now() units on
        # both ends, so no driver (or backend) can mix clocks.
        deadline = backend.now() + timeout if timeout is not None else None
        try:
            while True:
                # Going to wait is a monitor exit too: hand the monitor on
                # first (the relay rule, or a broadcast).
                self._hand_off()
                stats.waits += 1
                monitor._trace("wait", predicate=label)
                remaining = (
                    max(deadline - backend.now(), 0.0)
                    if deadline is not None
                    else None
                )
                notified = yield condition, remaining
                stats.wakeups += 1
                if notified:
                    # An expired wait consumed no signal; a promise made to
                    # this entry stays valid for its remaining waiters.
                    self.consume(entry)
                if monitor._predicate_holds(recheck, recheck_locals):
                    monitor._trace("wakeup", predicate=label)
                    return
                if deadline is not None and backend.now() >= deadline:
                    stats.wait_timeouts += 1
                    monitor._trace("wait_timeout", predicate=label)
                    raise WaitTimeout(compiled.source, timeout)
                stats.spurious_wakeups += 1
                monitor._trace("spurious_wakeup", predicate=label)
        finally:
            self._delist(entry)


class RelayPolicyBase(SignallingPolicy):
    """Shared machinery for relay-style policies.

    Relay policies route every wait through a
    :class:`~repro.core.condition_manager.ConditionManager` and obey the relay
    rule: a thread leaving the monitor (returning from an entry method *or*
    about to block in ``wait_until``) passes the monitor on to waiting
    threads whose predicates currently hold.  Subclasses customise the single
    :meth:`relay` step — which waiter(s) a monitor hand-off selects.
    """

    #: Whether the condition manager builds tag structures (Fig. 7).
    use_tags: ClassVar[bool] = False
    #: Whether the condition manager may use the monitor's write tracker for
    #: dirty-set (incremental) relay search.  Ablation policies set this to
    #: False so they keep measuring the pure exhaustive baseline.
    use_incremental: ClassVar[bool] = True

    def __init__(self) -> None:
        super().__init__()
        self._manager: Optional["ConditionManager"] = None

    @property
    def condition_manager(self) -> Optional["ConditionManager"]:
        return self._manager

    def _setup(self, monitor: "AutoSynchMonitor") -> None:
        self._manager = monitor._create_condition_manager(
            use_tags=self.use_tags, incremental=self.use_incremental
        )

    # -- the customisation point ---------------------------------------------

    def relay(self) -> bool:
        """Signal ready waiter(s); True when at least one was signalled."""
        return self._manager.relay_signal()

    # -- hook implementations --------------------------------------------------

    def _enlist(self, compiled, local_values):
        globalized = compiled.globalized(local_values)
        if globalized.from_template:
            self._monitor._stats.template_globalizations += 1
        manager = self._manager
        entry = manager.acquire_entry(
            globalized, from_shared_predicate=compiled.is_shared
        )
        manager.add_waiter(entry)
        return entry.condition, entry.canonical, globalized, None, entry

    def _delist(self, entry: "PredicateEntry") -> None:
        self._manager.remove_waiter(entry)

    def consume(self, entry: "PredicateEntry") -> None:
        self._manager.consume_signal(entry)

    def _hand_off(self) -> None:
        """One relay step, with the monitor's validate-mode invariance check."""
        monitor = self.monitor
        if not self.relay() and monitor._validate:
            monitor._check_no_missed_signal()
