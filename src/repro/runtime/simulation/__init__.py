"""Deterministic cooperative simulation backend.

The simulator steps its simulated threads one at a time, as coroutines, on
the calling OS thread — ``async def`` targets as they are, plain functions as
coroutine twins generated from their source — and hands control from thread
to thread only at synchronization points (contended lock acquisition, condition wait, thread exit, explicit
yields).  Scheduling decisions are made by a seeded policy, so a whole
experiment is reproducible bit-for-bit, and the kernel counts every
hand-off, giving exact context-switch counts that do not depend on the GIL
or on OS scheduling noise.

This is the substrate used to reproduce the *shape* of the paper's
evaluation: the quantities the paper's argument rests on (context switches
and predicate evaluations caused by each signalling mechanism) are measured
exactly here, while the threading backend provides wall-clock numbers for
reference.
"""

from repro.runtime.simulation.kernel import (
    DeadlockError,
    MonitorAbandonedError,
    SimulationBackend,
    SimulationError,
    SimulationHangError,
    SimulationLimitError,
)
from repro.runtime.simulation.schedulers import (
    FifoScheduler,
    PrefixScheduler,
    RandomScheduler,
    ReplayScheduler,
    SchedulePoint,
    ScheduleDivergenceError,
    ScheduleTrace,
    Scheduler,
    available_schedulers,
    create_scheduler,
    describe_scheduler,
    get_scheduler,
    register_scheduler,
    unregister_scheduler,
)

__all__ = [
    "DeadlockError",
    "FifoScheduler",
    "MonitorAbandonedError",
    "SimulationHangError",
    "PrefixScheduler",
    "RandomScheduler",
    "ReplayScheduler",
    "SchedulePoint",
    "ScheduleDivergenceError",
    "ScheduleTrace",
    "Scheduler",
    "SimulationBackend",
    "SimulationError",
    "SimulationLimitError",
    "available_schedulers",
    "create_scheduler",
    "describe_scheduler",
    "get_scheduler",
    "register_scheduler",
    "unregister_scheduler",
]
