"""The signalling-policy abstraction.

A :class:`SignallingPolicy` decides *which waiting thread wakes up when* for
one :class:`~repro.core.monitor.AutoSynchMonitor` instance.  The monitor owns
the lock, the stats and the predicate compiler; the policy owns the blocking
protocol.  Four hooks cover the whole lifecycle:

* :meth:`on_wait` — a ``wait_until`` predicate evaluated to false; block the
  calling thread until it holds (the policy implements the full wait loop,
  including spurious-wakeup handling).
* :meth:`on_monitor_exit` — a thread is leaving the monitor through an entry
  method return; hand the monitor on to waiting threads as the policy sees
  fit (relay one, relay a batch, broadcast, ...).
* :meth:`consume` — a woken waiter consumed one promised signal (only
  meaningful for policies that track pending signals through a
  :class:`~repro.core.condition_manager.ConditionManager`).
* :meth:`describe` — a one-line human-readable label used by harness reports.

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
    def on_wait(
        self,
        compiled: "CompiledPredicate",
        local_values: Mapping[str, object],
        timeout: Optional[float] = None,
    ) -> None:
        """Block the calling thread until *compiled* holds.

        Called with the monitor lock held, after the predicate evaluated to
        false once.  Must return with the lock held and the predicate true.
        With a *timeout* (in the backend's time units), the wait must raise
        :class:`~repro.core.errors.WaitTimeout` — lock re-held — once the
        deadline passes with the predicate still false.
        """

    @abc.abstractmethod
    def on_monitor_exit(self) -> None:
        """A thread is leaving the monitor: pass it on to waiting threads."""

    def consume(self, entry: "PredicateEntry") -> None:
        """A woken waiter on *entry* consumed one promised signal."""

    def describe(self) -> str:
        """One-line label used by reports and the CLI (defaults to
        :attr:`description`, falling back to the policy name)."""
        return self.description or self.name

    # -- the wait protocol, split from the blocking primitive ------------------

    def wait_steps(
        self,
        compiled: "CompiledPredicate",
        local_values: Mapping[str, object],
        timeout: Optional[float] = None,
    ):
        """The wait loop as a generator of park requests.

        Yields ``(condition, remaining_timeout)`` each time the calling
        thread must block, and receives the park's ``notified`` flag back
        via ``send()``.  Returns (``StopIteration``) once the predicate
        holds; raises :class:`~repro.core.errors.WaitTimeout` when the
        deadline passes.  All bookkeeping — relay-before-wait, stats,
        deadline arithmetic in the backend's :meth:`Backend.now` units,
        waiter registration/removal — lives in the generator, so sync and
        coroutine drivers cannot diverge: :meth:`on_wait` drives it with
        ``monitor._block_on`` and the asyncio driver with
        ``await condition.wait_async``.

        The base implementation reports the policy as not generator-driven;
        policies overriding only :meth:`on_wait` keep working on blocking
        backends but cannot host coroutine waiters.
        """
        raise MonitorUsageError(
            f"signalling policy {self.name!r} does not implement the wait_steps "
            "protocol; it cannot drive coroutine waiters"
        )

    def _drive_wait(self, steps) -> None:
        """Run a :meth:`wait_steps` generator on a blocking backend."""
        monitor = self.monitor
        try:
            try:
                condition, remaining = next(steps)
            except StopIteration:
                return
            while True:
                notified = monitor._block_on(condition, timeout=remaining)
                try:
                    condition, remaining = steps.send(notified)
                except StopIteration:
                    return
        finally:
            # Closing is idempotent; on an abnormal exit from _block_on it
            # runs the generator's cleanup (waiter deregistration).
            steps.close()


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

    def on_wait(
        self,
        compiled: "CompiledPredicate",
        local_values: Mapping[str, object],
        timeout: Optional[float] = None,
    ) -> None:
        self._drive_wait(self.wait_steps(compiled, local_values, timeout))

    def wait_steps(
        self,
        compiled: "CompiledPredicate",
        local_values: Mapping[str, object],
        timeout: Optional[float] = None,
    ):
        monitor = self.monitor
        manager = self._manager
        stats = monitor.stats
        backend = monitor.backend
        globalized = compiled.globalized(local_values)
        if globalized.from_template:
            stats.template_globalizations += 1
        entry = manager.acquire_entry(
            globalized, from_shared_predicate=compiled.is_shared
        )
        manager.add_waiter(entry)
        # The single place deadlines are computed: backend.now() units on
        # both ends, so no driver (or backend) can mix clocks.
        deadline = backend.now() + timeout if timeout is not None else None
        try:
            while True:
                # Relay rule: a thread about to wait passes the monitor on to
                # waiting threads whose predicates already hold, if any exist.
                self._relay_checked()
                stats.waits += 1
                monitor._trace("wait", predicate=entry.canonical)
                remaining = (
                    max(deadline - backend.now(), 0.0)
                    if deadline is not None
                    else None
                )
                notified = yield entry.condition, remaining
                stats.wakeups += 1
                if notified:
                    # An expired wait consumed no signal; a promise made to
                    # this entry stays valid for its remaining waiters.
                    self.consume(entry)
                if monitor._predicate_holds(globalized):
                    monitor._trace("wakeup", predicate=entry.canonical)
                    return
                if deadline is not None and backend.now() >= deadline:
                    stats.wait_timeouts += 1
                    monitor._trace("wait_timeout", predicate=entry.canonical)
                    raise WaitTimeout(compiled.source, timeout)
                stats.spurious_wakeups += 1
                monitor._trace("spurious_wakeup", predicate=entry.canonical)
        finally:
            manager.remove_waiter(entry)

    def on_monitor_exit(self) -> None:
        self._relay_checked()

    def consume(self, entry: "PredicateEntry") -> None:
        self._manager.consume_signal(entry)

    def _relay_checked(self) -> bool:
        """One relay step, with the monitor's validate-mode invariance check."""
        monitor = self.monitor
        signalled = self.relay()
        if monitor._validate and not signalled:
            monitor._check_no_missed_signal()
        return signalled
