"""AutoSynch core: monitors, condition manager, signalling strategies.

The public API a downstream user needs:

* :class:`AutoSynchMonitor` — subclass it, write entry methods that call
  ``self.wait_until("...")`` instead of managing condition variables, and the
  runtime signals the right thread automatically (the paper's contribution).
* :class:`ExplicitMonitor` — the conventional explicit-signal monitor base
  used for the paper's comparison baselines.
* ``signalling`` selects a policy from the pluggable registry
  (:mod:`repro.core.signalling`): ``"autosynch"``, ``"autosynch_t"`` and
  ``"baseline"`` are the paper's §6.2 mechanisms (full AutoSynch, AutoSynch
  without predicate tagging, single-condition signal-all); ``"relay_batched"``
  and ``"relay_fifo"`` are extension policies, and custom policies register
  with :func:`~repro.core.signalling.register_policy`.
"""

from repro.core.condition_manager import ConditionManager, PredicateEntry
from repro.core.errors import (
    MonitorError,
    MonitorUsageError,
    RelayInvarianceError,
    WaitTimeout,
)
from repro.core.heaps import ThresholdHeap
from repro.core.instrumentation import MonitorStats
from repro.core.monitor import (
    AUTOMATIC_MODES,
    AutoSynchMonitor,
    ExplicitMonitor,
    MonitorBase,
    entry_method,
    query_method,
)
from repro.core.signalling import (
    SignallingPolicy,
    available_policies,
    describe_policy,
    get_policy,
    register_policy,
)
from repro.core.trace import TraceEvent, Tracer

__all__ = [
    "AUTOMATIC_MODES",
    "AutoSynchMonitor",
    "ConditionManager",
    "ExplicitMonitor",
    "MonitorBase",
    "MonitorError",
    "MonitorStats",
    "MonitorUsageError",
    "RelayInvarianceError",
    "PredicateEntry",
    "SignallingPolicy",
    "ThresholdHeap",
    "TraceEvent",
    "Tracer",
    "WaitTimeout",
    "available_policies",
    "describe_policy",
    "entry_method",
    "get_policy",
    "query_method",
    "register_policy",
]
