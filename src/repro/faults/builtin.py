"""The built-in fault types.

Each models one way real monitor stacks go wrong:

* ``spurious_wakeup`` — a waiter resumes with no signal (POSIX permits it).
* ``dropped_signal`` — a notification is swallowed in flight.
* ``delayed_signal`` — a notification arrives, but much later.
* ``thread_crash`` — a thread dies while holding the monitor lock.
* ``predicate_error`` — a compiled predicate closure raises.
* ``tracker_amnesia`` — the write tracker silently stops seeing writes
  (the seeded defect of the incremental-relay test suite, promoted to a
  first-class registered fault).

Every fault fires at deterministic points of the simulated schedule, so a
chaos run replays exactly from its recorded seed + plan.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.faults.base import Fault, InjectedFaultError, register_fault

__all__ = [
    "SpuriousWakeupFault",
    "DroppedSignalFault",
    "DelayedSignalFault",
    "ThreadCrashFault",
    "PredicateErrorFault",
    "TrackerAmnesiaFault",
]


@register_fault
class SpuriousWakeupFault(Fault):
    """Wake one parked waiter without a signal, once, at a given step.

    A correct monitor absorbs this: the woken thread re-evaluates its
    predicate, finds it false, and goes back to waiting.
    """

    name = "spurious_wakeup"
    description = "wake one waiter without a signal at a given step"
    acceptable_kinds = frozenset({"ok", "step_limit"})

    def __init__(self, at_step: int = 5) -> None:
        super().__init__(at_step=at_step)
        self.at_step = at_step
        self._armed = True

    def on_attach(self, injector) -> None:
        self._armed = True

    def on_decision(self, injector, kernel, step: int) -> None:
        if not self._armed or step < self.at_step:
            return
        tid = kernel.inject_wake_one_waiter()
        if tid is not None:
            self._armed = False
            injector.record(self, step, f"spuriously woke thread {tid}")


@register_fault
class DroppedSignalFault(Fault):
    """Swallow the n-th notification that would have woken somebody.

    Without recovery this loses a promised signal for good — the classified
    outcomes are a missed signal or deadlock; with the self-healing hook
    engaged the run completes normally.
    """

    name = "dropped_signal"
    description = "swallow the n-th notification outright"
    acceptable_kinds = frozenset(
        {"ok", "missed_signal", "deadlock", "timeout", "step_limit"}
    )

    def __init__(self, nth: int = 1) -> None:
        super().__init__(nth=nth)
        self.nth = nth
        self._seen = 0

    def on_attach(self, injector) -> None:
        self._seen = 0

    def on_notify(self, injector, kernel, condition, wake_all: bool) -> bool:
        self._seen += 1
        if self._seen != self.nth:
            return False
        label = condition.label or "condition"
        injector.record(
            self,
            kernel.steps,
            f"dropped {'notify_all' if wake_all else 'notify'} on {label}",
        )
        return True


@register_fault
class DelayedSignalFault(Fault):
    """Detach the n-th notification's waiter and re-deliver it *delay*
    scheduling steps later.

    If the run goes idle before the delivery comes due, the signal is
    force-delivered rather than left to cause a spurious deadlock — a
    delayed signal is late, not lost.
    """

    name = "delayed_signal"
    description = "hold the n-th notification back for a number of steps"
    acceptable_kinds = frozenset(
        {"ok", "missed_signal", "deadlock", "timeout", "step_limit"}
    )

    def __init__(self, nth: int = 1, delay: int = 8) -> None:
        super().__init__(nth=nth, delay=delay)
        self.nth = nth
        self.delay = delay
        self._seen = 0
        #: (due_step, condition, tid) notifications held back, oldest first.
        self._pending: List[Tuple[int, object, int]] = []

    def on_attach(self, injector) -> None:
        self._seen = 0
        self._pending = []

    def on_notify(self, injector, kernel, condition, wake_all: bool) -> bool:
        if wake_all and len(condition.waiters) > 1:
            # Delaying one waiter of a broadcast would still deliver the
            # rest; keep the fault's semantics sharp and skip those.
            return False
        self._seen += 1
        if self._seen != self.nth:
            return False
        tid = kernel.inject_detach_waiter(condition)
        if tid is None:
            return False
        due = kernel.steps + self.delay
        self._pending.append((due, condition, tid))
        label = condition.label or "condition"
        injector.record(
            self, kernel.steps, f"delayed signal for thread {tid} on {label} until step {due}"
        )
        return True

    def on_decision(self, injector, kernel, step: int) -> None:
        while self._pending and self._pending[0][0] <= step:
            _, condition, tid = self._pending.pop(0)
            if kernel.inject_deliver_waiter(condition, tid):
                injector.record(self, step, f"delivered delayed signal to thread {tid}")

    def on_no_runnable(self, injector, kernel) -> bool:
        delivered = False
        while self._pending:
            _, condition, tid = self._pending.pop(0)
            if kernel.inject_deliver_waiter(condition, tid):
                injector.record(
                    self, kernel.steps,
                    f"force-delivered delayed signal to thread {tid} (idle run)",
                )
                delivered = True
        return delivered


@register_fault
class ThreadCrashFault(Fault):
    """Kill the first thread seen holding a lock at or after a given step.

    The victim dies silently at its next kernel primitive, still owning the
    monitor — the kernel's abandonment detection (not a hang) is the
    expected verdict when other threads are stuck behind it.
    """

    name = "thread_crash"
    description = "kill a thread while it holds the monitor lock"
    acceptable_kinds = frozenset(
        {
            "ok",
            "abandonment",
            "deadlock",
            "missed_signal",
            "postcondition",
            "timeout",
            "step_limit",
            "oracle",
            "error",
        }
    )

    def __init__(self, at_step: int = 6) -> None:
        super().__init__(at_step=at_step)
        self.at_step = at_step
        self._armed = True

    def on_attach(self, injector) -> None:
        self._armed = True

    def on_decision(self, injector, kernel, step: int) -> None:
        if not self._armed or step < self.at_step:
            return
        tid = kernel.inject_doom_lock_owner()
        if tid is not None:
            self._armed = False
            injector.record(self, step, f"doomed lock-owning thread {tid}")


@register_fault
class PredicateErrorFault(Fault):
    """Raise from inside the n-th compiled predicate evaluation.

    The monitor's quarantine machinery demotes the poisoned predicate to
    the interpreter and the run completes — the only acceptable outcome.
    """

    name = "predicate_error"
    description = "raise from the n-th compiled predicate evaluation"
    acceptable_kinds = frozenset({"ok"})

    def __init__(self, nth: int = 1) -> None:
        super().__init__(nth=nth)
        self.nth = nth
        self._seen = 0
        self._fired = False

    def on_attach(self, injector) -> None:
        self._seen = 0
        self._fired = False

    def on_compiled_eval(self, injector, monitor) -> None:
        if self._fired:
            return
        self._seen += 1
        if self._seen == self.nth:
            self._fired = True
            injector.record(
                self, -1, f"raised from compiled evaluation #{self.nth}"
            )
            raise InjectedFaultError(
                f"injected compiled-predicate failure (evaluation #{self.nth})"
            )


@register_fault
class TrackerAmnesiaFault(Fault):
    """Silently stop the monitor's write tracker at or after a given step.

    Writes past that point no longer dirty the tracker, so the incremental
    relay path may skip a predicate that has become true — the classified
    outcomes are a missed signal or deadlock; with self-healing engaged the
    manager demotes itself to exhaustive search and the run completes.
    """

    name = "tracker_amnesia"
    description = "write tracker silently stops recording writes"
    acceptable_kinds = frozenset(
        {"ok", "missed_signal", "deadlock", "timeout", "step_limit"}
    )

    def __init__(self, at_step: int = 0) -> None:
        super().__init__(at_step=at_step)
        self.at_step = at_step
        self._armed = True

    def on_attach(self, injector) -> None:
        self._armed = True

    def on_decision(self, injector, kernel, step: int) -> None:
        if not self._armed or step < self.at_step:
            return
        monitor = injector.monitor
        if monitor is None:
            return
        tracker = getattr(monitor, "write_tracker", None)
        if tracker is None:
            # Nothing to corrupt (incremental relay off): disarm quietly.
            self._armed = False
            return
        tracker.suppressed = True
        self._armed = False
        injector.record(self, step, "write tracker suppressed")
