"""Event counters used to reproduce the paper's measurements.

``MonitorStats`` holds integer event counters only (predicate evaluations,
relay signals, wake-ups, tag-structure activity, compiled-vs-interpreted
evaluation counts and EvalContext cache hits).  The paper's Table 1 CPU-usage
breakdown (await / lock / relaySignal / tag manager / others) is modelled
from these counts through the cost model (see
:mod:`repro.harness.profiling`), not measured with clocks.

The counters are updated while the monitor lock is held, so no extra
synchronization is needed on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict

__all__ = ["MonitorStats"]


@dataclass
class MonitorStats:
    """Event counters for one monitor instance."""

    # --- event counters -------------------------------------------------
    entries: int = 0
    waits: int = 0
    wakeups: int = 0
    spurious_wakeups: int = 0
    predicate_evaluations: int = 0
    predicate_registrations: int = 0
    predicate_reuses: int = 0
    relay_signal_calls: int = 0
    signals_sent: int = 0
    signal_alls_sent: int = 0
    tag_hash_lookups: int = 0
    tag_heap_checks: int = 0
    exhaustive_checks: int = 0
    tag_insertions: int = 0
    tag_removals: int = 0
    #: Predicate evaluations served by a compiled (codegen) closure.
    compiled_evaluations: int = 0
    #: Predicate evaluations served by the tree-walking interpreter (the
    #: fallback where codegen declined a predicate or quarantined it).
    interpreted_evaluations: int = 0
    #: Shared-variable reads answered from an EvalContext's per-pass cache.
    shared_read_cache_hits: int = 0
    #: Shared-variable writes observed by the monitor's write tracker.
    tracked_writes: int = 0
    #: EvalContext instances the condition manager actually constructed for
    #: relay/search passes.  With the per-manager context pool this stays at
    #: ~1 per manager however many passes run; without pooling it equals the
    #: number of passes.
    eval_context_allocations: int = 0
    #: Candidate entries a relay pass skipped because no variable in their
    #: read set was written since their last false evaluation (the
    #: incremental relay path; exhaustive search never skips).
    relay_entries_skipped: int = 0
    #: Complex-predicate globalizations bound into a per-site template
    #: (the rest of the waits on complex predicates ran the full pipeline).
    template_globalizations: int = 0
    #: Timed ``wait_until`` calls that gave up (raised ``WaitTimeout``).
    wait_timeouts: int = 0
    #: Predicates demoted from their compiled closure to the interpreter after
    #: their compiled closure raised a non-semantic error (self-healing
    #: degradation; the run continues on the interpreter).
    predicate_quarantines: int = 0
    #: Times this monitor's condition manager stopped trusting its write
    #: tracker and fell back to exhaustive relay search for good (triggered
    #: by self-healing after a detected tracker inconsistency).
    incremental_demotions: int = 0
    #: Lost signals recovered by :meth:`AutoSynchMonitor.try_self_heal`
    #: (a true waiting predicate re-signalled instead of deadlocking).
    self_heal_recoveries: int = 0
    #: Faults a :class:`repro.faults.FaultInjector` injected into this
    #: monitor's run (chaos mode; 0 outside fault-injection runs).
    faults_injected: int = 0

    #: Field names served to :meth:`snapshot`, resolved once at import time
    #: — dataclass field introspection per call shows up in exploration
    #: throughput measurements.
    _SNAPSHOT_FIELDS: ClassVar[tuple] = ()
    #: Every counter at zero, for :meth:`reset`.
    _ZEROS: ClassVar[dict] = {}

    def snapshot(self) -> Dict[str, int]:
        """Return all counters as a plain dictionary."""
        get = self.__dict__
        return {name: get[name] for name in MonitorStats._SNAPSHOT_FIELDS}

    def reset(self) -> None:
        """Zero every counter."""
        self.__dict__.update(MonitorStats._ZEROS)

    def merge(self, other: "MonitorStats") -> None:
        """Accumulate *other* into this object (used to aggregate repetitions)."""
        for name in MonitorStats._SNAPSHOT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


MonitorStats._SNAPSHOT_FIELDS = tuple(f.name for f in fields(MonitorStats))
MonitorStats._ZEROS = dict.fromkeys(MonitorStats._SNAPSHOT_FIELDS, 0)
