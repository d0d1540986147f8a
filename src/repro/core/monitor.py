"""Monitor base classes: the AutoSynch automatic-signal monitor and the
explicit-signal monitor used as the paper's comparison baseline.

Usage sketch (the automatic-signal bounded buffer from Fig. 1)::

    class BoundedBuffer(AutoSynchMonitor):
        def __init__(self, capacity, **monitor_kwargs):
            super().__init__(**monitor_kwargs)
            self.buffer = []
            self.capacity = capacity

        def put(self, item):
            self.wait_until("len(buffer) < capacity")
            self.buffer.append(item)

        def take(self):
            self.wait_until("len(buffer) > 0")
            return self.buffer.pop(0)

Every public method of a monitor subclass is an *entry method*: it runs under
the monitor lock, and when it leaves the monitor (returns or blocks in
``wait_until``) the signalling strategy decides which waiting thread to wake.
There are no condition variables and no ``signal`` calls in user code.

The ``signalling`` constructor argument selects the signalling policy.  It
resolves through the policy registry (:mod:`repro.core.signalling`), so it
accepts any registered name — including the three mechanisms compared in the
paper's evaluation:

* ``"autosynch"`` — relay signalling guided by predicate tags (the paper's
  contribution),
* ``"autosynch_t"`` — relay signalling with exhaustive predicate search
  (AutoSynch without tagging),
* ``"baseline"`` — a single condition variable and ``notify_all`` on every
  monitor exit; each woken thread re-evaluates its own predicate,

as well as the extension policies (``"relay_batched"``, ``"relay_fifo"``,
...), a :class:`~repro.core.signalling.SignallingPolicy` subclass, or a
configured policy instance.
"""

from __future__ import annotations

import functools
from typing import Callable, Mapping, Optional, Union

from repro.core.condition_manager import DEFAULT_INACTIVE_CAPACITY, ConditionManager
from repro.core.errors import MonitorUsageError
from repro.core.instrumentation import MonitorStats
from repro.core.signalling import SignallingPolicy, create_policy
from repro.core.write_tracking import WriteTracker, incremental_enabled
from repro.predicates.evaluator import (
    _EMPTY_LOCALS,
    EvaluationError,
    evaluate_bool,
    read_shared,
)
from repro.predicates.predicate import (
    CompiledPredicate,
    GlobalizedPredicate,
    compile_predicate,
)
from repro.runtime.api import Backend, ConditionAPI
from repro.runtime.threads import ThreadingBackend

__all__ = [
    "AUTOMATIC_MODES",
    "MonitorBase",
    "AutoSynchMonitor",
    "ExplicitMonitor",
    "entry_method",
    "query_method",
]

#: The automatic signalling mechanisms of §6.2 (the paper's legacy modes;
#: the full, extensible list lives in the signalling-policy registry — see
#: :func:`repro.core.signalling.available_policies`).
AUTOMATIC_MODES = ("autosynch", "autosynch_t", "baseline")


def query_method(func: Callable) -> Callable:
    """Mark a method as a side-effect-free query usable inside predicates.

    Query methods are *not* wrapped as entry methods: they are called by the
    condition manager (and by entry methods) while the monitor lock is
    already held.
    """
    func._monitor_query = True
    return func


def entry_method(func: Callable) -> Callable:
    """Explicitly mark a method as a monitor entry method.

    Public methods are wrapped automatically; this decorator exists for
    wrapping a method whose name starts with an underscore, or simply for
    documentation.
    """
    func._monitor_entry = True
    return func


def _wrap_entry(func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(self: "MonitorBase", *args: object, **kwargs: object):
        return self._run_entry(func, args, kwargs)

    wrapper._monitor_entry_wrapped = True
    return wrapper


#: Stores framework state without running a subclass's ``__setattr__``: each
#: slot's one write in the constructors, and the ``_owner_id`` of every entry,
#: exit and park.  None of it is a shared variable, so
#: :class:`AutoSynchMonitor`'s write-tracking hook has nothing to record.
_raw_setattr = object.__setattr__


class MonitorBase:
    """Common machinery: the monitor lock, entry-method wrapping and stats.

    Framework state lives in ``__slots__``, never in the instance
    ``__dict__``: ``vars(monitor)`` holds the user's fields and nothing else.
    """

    __slots__ = (
        "_backend", "_stats", "_tracer", "_mutex", "_owner_id",
        "__dict__", "__weakref__",
    )

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        for name, attribute in list(vars(cls).items()):
            if not callable(attribute):
                continue
            if getattr(attribute, "_monitor_entry_wrapped", False):
                continue
            if getattr(attribute, "_monitor_query", False):
                continue
            explicit = getattr(attribute, "_monitor_entry", False)
            if name.startswith("_") and not explicit:
                continue
            if not explicit and name in _NEVER_WRAPPED:
                continue
            setattr(cls, name, _wrap_entry(attribute))

    def __init__(
        self,
        backend: Optional[Backend] = None,
        tracer: Optional[object] = None,
    ) -> None:
        backend = backend if backend is not None else ThreadingBackend()
        _raw_setattr(self, "_backend", backend)
        _raw_setattr(self, "_stats", MonitorStats())
        _raw_setattr(self, "_tracer", tracer)
        _raw_setattr(self, "_mutex", backend.create_lock())
        _raw_setattr(self, "_owner_id", None)

    # -- public introspection ------------------------------------------------

    @property
    def stats(self) -> MonitorStats:
        """Event counters for this monitor."""
        return self._stats

    @property
    def backend(self) -> Backend:
        """The execution backend this monitor runs on."""
        return self._backend

    @property
    def tracer(self) -> Optional[object]:
        """The attached :class:`repro.core.trace.Tracer`, if any."""
        return self._tracer

    # -- entry-method machinery -----------------------------------------------

    def _holds_monitor(self) -> bool:
        return self._owner_id is not None and self._owner_id == self._backend.current_id()

    def _run_entry(self, func: Callable, args: tuple, kwargs: dict):
        if not hasattr(self, "_mutex"):
            raise MonitorUsageError(
                f"{type(self).__name__}.__init__ must call super().__init__() "
                "before any entry method is used"
            )
        if self._holds_monitor():
            # Nested call from another entry method: already inside the monitor.
            return func(self, *args, **kwargs)
        self._enter(func.__name__)
        try:
            return func(self, *args, **kwargs)
        finally:
            self._leave(func.__name__)

    def _trace(self, kind: str, predicate: Optional[str] = None, detail: Optional[str] = None) -> None:
        if self._tracer is not None:
            self._tracer.record(kind, self._backend.current_id(), predicate, detail)

    def _enter(self, method_name: str = "") -> None:
        self._stats.entries += 1
        self._mutex.acquire()
        _raw_setattr(self, "_owner_id", self._backend.current_id())
        self._trace("enter", detail=method_name)

    def _leave(self, method_name: str = "") -> None:
        try:
            self._before_release()
        finally:
            self._trace("exit", detail=method_name)
            _raw_setattr(self, "_owner_id", None)
            self._mutex.release()

    def _before_release(self) -> None:
        """Hook invoked, with the lock held, every time a thread leaves the
        monitor through an entry method return."""

    def _restart(self) -> None:
        """Put the framework state back as a fresh construction left it.

        For a workload restored between schedules (see
        :mod:`repro.explore.restore`), which restores the user's fields
        afterwards: the stats are zeroed and nobody is inside.  The lock
        (and an explicit monitor's conditions) are the kernel's to reset.
        """
        self._stats.reset()
        _raw_setattr(self, "_owner_id", None)

    def _require_monitor_held(self, operation: str) -> None:
        if not self._holds_monitor():
            raise MonitorUsageError(
                f"{operation} may only be used from inside a monitor entry method"
            )

    def _park_blocking(self, steps) -> None:
        """The blocking driver of a wait: run *steps*, a generator of
        ``(condition, timeout)`` park requests (None: nothing to wait for).

        Each park releases the monitor and blocks on the condition (owner
        bookkeeping included), then sends back whether the wake-up was a
        notification (False: the timed wait expired), with the monitor lock
        re-held.  ``async_driver._park`` is the awaiting twin.
        """
        if steps is None:
            return
        notified = None
        try:
            while True:
                try:
                    condition, timeout = steps.send(notified)
                except StopIteration:
                    return
                _raw_setattr(self, "_owner_id", None)
                try:
                    notified = condition.wait(timeout)
                finally:
                    _raw_setattr(self, "_owner_id", self._backend.current_id())
        finally:
            # Closing is idempotent; on an abnormal exit from a park it runs
            # the generator's cleanup (waiter deregistration).
            steps.close()


#: Names on monitor base classes that must never be treated as entry methods.
_NEVER_WRAPPED = frozenset(
    {
        "stats",
        "backend",
        "wait_until",
        "new_condition",
        "wait_on",
        "signal",
        "signal_all",
        "condition_manager",
        "try_self_heal",
    }
)


class AutoSynchMonitor(MonitorBase):
    """Automatic-signal monitor: ``wait_until`` instead of condition variables.

    Parameters
    ----------
    backend:
        Execution backend (defaults to a private :class:`ThreadingBackend`).
    signalling:
        A registered policy name (``"autosynch"`` — the default —,
        ``"autosynch_t"``, ``"baseline"``, ``"relay_batched"``,
        ``"relay_fifo"``, ...), a :class:`SignallingPolicy` subclass, or a
        configured policy instance.
    inactive_capacity:
        How many inactive complex predicates to keep cached for reuse.
    validate:
        Check the relay-invariance property after every relay step that
        signalled nobody (slow; used by the validation sweeps).

    Each predicate is lowered to a native Python closure, with transparent
    fallback to the interpreter for anything codegen declines.  Relay passes
    use dirty-set search (skip re-evaluating predicates none of whose shared
    variables were written since their last false evaluation) while the
    process-wide toggle :func:`repro.core.write_tracking.incremental_enabled`
    is on, and silently fall back to exhaustive search whenever write
    tracking cannot be trusted (a subclass overriding ``__setattr__``,
    preprocessor-transformed classes) — incremental relay is a pure
    optimisation, never a behaviour change.

    :attr:`stats` counts events only (entries, waits, evaluations, relay
    passes, tag operations, ...); the paper's Table 1 CPU-usage breakdown
    is modelled from those counters (:mod:`repro.harness.profiling`).

    Framework state lives in ``__slots__``, so ``vars(monitor)`` is exactly
    the user's fields: public ones are shared variables, and a leading
    underscore marks the user's private state, which bare predicate names do
    not resolve to and write tracking ignores.
    """

    __slots__ = (
        "_validate", "_wait_timeout", "_inactive_capacity", "_predicate_cache",
        "_write_tracker", "_fault_hook", "_policy", "_cond_mgr",
    )

    def __init__(
        self,
        backend: Optional[Backend] = None,
        signalling: object = "autosynch",
        inactive_capacity: int = DEFAULT_INACTIVE_CAPACITY,
        tracer: Optional[object] = None,
        validate: bool = False,
        wait_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(backend, tracer)
        _raw_setattr(self, "_validate", validate)
        # Default timeout applied to every ``wait_until`` that does not pass
        # its own (None: wait forever).  Measured in the backend's time
        # units — seconds on real threads, scheduling steps under simulation.
        _raw_setattr(self, "_wait_timeout", wait_timeout)
        _raw_setattr(self, "_inactive_capacity", inactive_capacity)
        _raw_setattr(self, "_predicate_cache", {})
        _raw_setattr(self, "_write_tracker", self._new_write_tracker())
        # Fault-injection hook (a :class:`repro.faults.FaultInjector`),
        # consulted before every compiled predicate evaluation.
        _raw_setattr(self, "_fault_hook", None)
        if isinstance(signalling, str):
            try:
                policy = create_policy(signalling)
            except ValueError as error:
                raise ValueError(f"unknown signalling mode: {error}") from None
        else:
            # Class/instance specs: construction errors (e.g. a bad
            # batch_limit) are the policy's own and must surface verbatim.
            policy = create_policy(signalling)
        _raw_setattr(self, "_policy", policy)
        policy.bind(self)
        _raw_setattr(self, "_cond_mgr", policy.condition_manager)

    # -- write tracking ---------------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        # Every assignment to a public field is a shared-variable write the
        # incremental relay path must see.  In-place container mutation does
        # not come through here — which is why the condition manager only
        # trusts the version vector for scalar-valued (or declared-tracked)
        # reads.  The tracker is read first, so writes on untracked monitors
        # skip the name test; before ``super().__init__()`` its slot is unset,
        # the write goes untracked and ``_run_entry`` reports the missing call.
        object.__setattr__(self, name, value)
        try:
            tracker = self._write_tracker
        except AttributeError:
            return
        if tracker is not None and not name.startswith("_"):
            tracker.bump(name)
            self._stats.tracked_writes += 1

    def _new_write_tracker(self) -> Optional[WriteTracker]:
        """A fresh write tracker, or None when incremental relay is off or
        write tracking is unsupported for this class."""
        if incremental_enabled() and self._write_tracking_supported():
            return WriteTracker()
        return None

    def _write_tracking_supported(self) -> bool:
        """Whether this class's shared-variable writes all reach our
        ``__setattr__`` hook.

        A subclass overriding ``__setattr__`` and classes produced by the
        source-to-source preprocessor (markers ``__autosynch_source__`` /
        ``_autosynch_options``) may assign state in ways the hook never
        sees, so they get the exhaustive fallback.
        """
        cls = type(self)
        if cls.__setattr__ is not AutoSynchMonitor.__setattr__:
            return False
        if getattr(cls, "__autosynch_source__", None) is not None:
            return False
        if getattr(cls, "_autosynch_options", None) is not None:
            return False
        return True

    def _bump_write(self, name: str) -> None:
        """Record a shared-variable write that bypassed ``__setattr__``.

        The scenario runtime calls this for compiled subscript stores
        (``container[i] = value`` mutates in place); anything else that
        mutates a tracked field without assigning it must do the same.
        """
        tracker = self._write_tracker
        if tracker is not None:
            tracker.bump(name)
            self._stats.tracked_writes += 1

    # -- public API ------------------------------------------------------------

    @property
    def write_tracker(self) -> Optional[WriteTracker]:
        """The monitor's shared-variable write tracker (None when the
        incremental relay path is disabled or unsupported)."""
        return self._write_tracker

    @property
    def signalling(self) -> str:
        """Name of the signalling policy this monitor instance uses."""
        return self._policy.name

    @property
    def signalling_policy(self) -> SignallingPolicy:
        """The bound :class:`SignallingPolicy` strategy object."""
        return self._policy

    @property
    def condition_manager(self) -> Optional[ConditionManager]:
        """The policy's condition manager (None for broadcast policies)."""
        return self._cond_mgr

    def wait_until(
        self,
        predicate: str,
        timeout: Optional[float] = None,
        **local_values: object,
    ) -> None:
        """Block until *predicate* holds (the paper's ``waituntil`` statement).

        *predicate* is a Python boolean expression over the monitor's public
        fields (written either bare or as ``self.field``) and over the
        keyword arguments, which play the role of the calling thread's local
        variables and are frozen to their current values (globalization).

        *timeout* bounds the wait, in the backend's time units (seconds on
        real threads, scheduling steps under simulation — see
        :meth:`Backend.now`); when it expires with the predicate still
        false, :class:`~repro.core.errors.WaitTimeout` is raised with the
        monitor lock re-held.  None falls back to the monitor-wide
        ``wait_timeout`` default (itself None: wait forever).  ``timeout``
        is therefore a reserved name — a local variable of that name cannot
        be passed through ``local_values``.

        Must be called from inside an entry method.
        """
        self._park_blocking(self._wait_steps(predicate, timeout, local_values))

    def _wait_steps(
        self,
        predicate: str,
        timeout: Optional[float],
        local_values: Mapping[str, object],
    ):
        """What both ``wait_until`` drivers share: check the caller holds
        the monitor, compile *predicate* and test it once.  Returns None
        when it already holds, else the policy's wait loop (its
        :meth:`~repro.core.signalling.SignallingPolicy.wait_steps`) under
        *timeout* or the monitor-wide default."""
        self._require_monitor_held("wait_until")
        compiled = self._compiled(predicate, local_values)
        if self._predicate_holds(compiled, local_values):
            return None
        if timeout is None:
            timeout = self._wait_timeout
        return self._policy.wait_steps(compiled, local_values, timeout)

    def _before_release(self) -> None:
        self._policy.on_monitor_exit()

    def _restart(self) -> None:
        """Also: no fault hook, a fresh write tracker and the policy bound
        afresh, so its condition manager starts empty.  Compiled predicates
        stay cached, except quarantined ones: a fresh build would compile
        those afresh."""
        super()._restart()
        _raw_setattr(self, "_fault_hook", None)
        _raw_setattr(self, "_write_tracker", self._new_write_tracker())
        policy = self._policy
        policy.rebind()
        _raw_setattr(self, "_cond_mgr", policy.condition_manager)
        cache = self._predicate_cache
        for key in [key for key, compiled in cache.items() if compiled.ever_quarantined]:
            del cache[key]

    # -- services the signalling policies build on -------------------------------

    def _create_condition_manager(
        self, use_tags: bool, incremental: bool = True
    ) -> ConditionManager:
        """Build a condition manager wired to this monitor's lock and stats.

        ``incremental=False`` (the exhaustive-by-design policies, e.g. the
        AutoSynch-T ablation) withholds the write tracker so every pass
        stays a full search no matter what the monitor supports.
        """
        return ConditionManager(
            owner=self,
            backend=self._backend,
            lock=self._mutex,
            stats=self._stats,
            use_tags=use_tags,
            inactive_capacity=self._inactive_capacity,
            tracer=self._tracer,
            write_tracker=self._write_tracker if incremental else None,
        )

    def _predicate_holds(
        self,
        predicate: Union[CompiledPredicate, GlobalizedPredicate],
        local_values: Optional[Mapping[str, object]] = None,
    ) -> bool:
        """Evaluate *predicate*: its compiled closure, or the interpreter
        where codegen declined or quarantined it.

        Used for the checks performed by the calling thread itself — the
        initial ``wait_until`` test and the broadcast policy's re-check of a
        (possibly complex) predicate with live local values, and the relay
        policies' wakeup re-check of a globalized one.  The condition
        manager's batch searches instead evaluate through a shared per-pass
        :class:`~repro.predicates.evaluator.EvalContext`.

        A closure that raises anything but ``EvaluationError`` (which has
        guaranteed class parity with the interpreter) diverged from the tree
        walker: it is quarantined and the interpreter answers, with the
        compiled-evaluation counter rolled back so ``compiled +
        interpreted == predicate_evaluations`` still holds.
        """
        stats = self._stats
        stats.predicate_evaluations += 1
        fn = predicate.compiled_fn()
        if fn is not None:
            stats.compiled_evaluations += 1
            try:
                hook = self._fault_hook
                if hook is not None:
                    hook.on_compiled_eval(self)
                return bool(fn(self, read_shared, local_values or _EMPTY_LOCALS))
            except EvaluationError:
                raise
            except Exception:
                predicate.quarantine()
                stats.compiled_evaluations -= 1
                stats.predicate_quarantines += 1
        stats.interpreted_evaluations += 1
        return evaluate_bool(predicate.expr, self, local_values)

    def _create_condition(self) -> ConditionAPI:
        """Create a condition variable tied to the monitor lock."""
        return self._backend.create_condition(self._mutex)

    def try_self_heal(self) -> Optional[ConditionAPI]:
        """Attempt to recover from an imminent deadlock (pure bookkeeping).

        Designed as a deadlock-recovery hook for the simulation kernel
        (:meth:`SimulationBackend.set_deadlock_recovery`), which calls it
        with its scheduler lock held from outside any simulated thread — so
        this method must not touch any backend primitive.  It exhaustively
        looks for a waiting predicate that is true (including waiters whose
        promised signal may have been lost in flight); if one is found while
        the dirty-set relay path is engaged, the write tracker evidently
        missed a write, so the manager is demoted to exhaustive search for
        good.  Either way the lost signal is re-promised, and the condition
        to wake is returned for the kernel to deliver — None when there is
        nothing to heal.
        """
        manager = self._cond_mgr
        if manager is None:
            return None
        entry = manager.find_missed_waiter(include_promised=True)
        if entry is None:
            return None
        stats = self._stats
        if manager.incremental:
            # The tracker let a true predicate be skipped: its dirty-set
            # bookkeeping can no longer be trusted for this monitor.
            manager.demote_to_exhaustive()
            stats.incremental_demotions += 1
        entry.pending_signals = min(entry.pending_signals + 1, entry.waiters)
        stats.signals_sent += 1
        stats.self_heal_recoveries += 1
        if self._tracer is not None:
            self._tracer.record("self_heal", None, predicate=entry.canonical)
        return entry.condition

    def _check_no_missed_signal(self) -> None:
        """Validation mode: after a relay that signalled nobody, no waiting
        predicate may be true (otherwise tag pruning lost a signal)."""
        from repro.core.errors import RelayInvarianceError

        missed = self._cond_mgr.find_missed_waiter()
        if missed is not None:
            raise RelayInvarianceError(
                "relay invariance violated: predicate "
                f"{missed.canonical!r} is true, has {missed.unsignalled_waiters} "
                "un-signalled waiter(s), but relay_signal found nothing to wake"
            )

    # -- predicate compilation ---------------------------------------------------

    def _compiled(
        self, source: str, local_values: Mapping[str, object]
    ) -> CompiledPredicate:
        key = (source, frozenset(local_values))
        compiled = self._predicate_cache.get(key)
        if compiled is None:
            shared = [name for name in vars(self) if not name.startswith("_")]
            compiled = compile_predicate(source, shared, set(local_values))
            self._predicate_cache[key] = compiled
        return compiled


class ExplicitMonitor(MonitorBase):
    """Conventional explicit-signal monitor (the paper's comparison point).

    Subclasses create condition variables with :meth:`new_condition` and use
    :meth:`wait_on`, :meth:`signal` and :meth:`signal_all` inside entry
    methods — exactly the discipline required by ``java.util.concurrent``,
    including the burden of choosing the right condition to signal.
    """

    __slots__ = ()

    def new_condition(self, name: Optional[str] = None) -> ConditionAPI:
        """Create a condition variable tied to the monitor lock."""
        condition = self._backend.create_condition(self._mutex)
        if name is not None and hasattr(condition, "label"):
            condition.label = name
        return condition

    @staticmethod
    def _condition_label(condition: ConditionAPI) -> str:
        label = getattr(condition, "label", None)
        return label if label is not None else f"condition@{id(condition):#x}"

    def wait_on(self, condition: ConditionAPI) -> None:
        """Wait on *condition* (the monitor lock is released while waiting)."""
        self._park_blocking(self._wait_on_steps(condition))

    def _wait_on_steps(self, condition: ConditionAPI):
        """``wait_on`` as one park request, for either driver."""
        self._require_monitor_held("wait_on")
        stats = self._stats
        label = self._condition_label(condition)
        stats.waits += 1
        self._trace("wait", predicate=label)
        yield condition, None
        stats.wakeups += 1
        self._trace("wakeup", predicate=label)

    def signal(self, condition: ConditionAPI) -> None:
        """Wake one thread waiting on *condition*."""
        self._require_monitor_held("signal")
        self._stats.signals_sent += 1
        self._trace("signal", predicate=self._condition_label(condition))
        condition.notify()

    def signal_all(self, condition: ConditionAPI) -> None:
        """Wake every thread waiting on *condition*."""
        self._require_monitor_held("signal_all")
        self._stats.signal_alls_sent += 1
        self._trace("signal_all", predicate=self._condition_label(condition))
        condition.notify_all()
