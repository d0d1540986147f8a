"""Sustained-load driver for the service tier: many parked coroutine waiters.

The saturation harness (:mod:`repro.harness.saturation`) measures
synchronization *overhead* — a handful of threads hammering one monitor.
The service tier asks the opposite question: how does an automatic-signal
monitor behave when it is the admission controller of a server holding
**10^4–10^6 parked waiters**, with a signaller draining them at a sustained
rate?  That workload is untestable with OS threads (a thread per waiter
stops scaling around 10^3); on the asyncio backend every waiter is a
coroutine parked on a per-waiter future, so a million of them fit in one
process.

Two entry points:

* :func:`run_service_load` — the monitor-level driver.  Parks ``waiters``
  coroutines on a builtin declarative scenario (``resource_pool`` — one
  fully shared guard — or ``fifo_semaphore`` — one ticket-equivalence
  guard per waiter) with an admission window of ``window`` slots, drives a
  signaller coroutine that releases a slot per completed admission
  (optionally paced at ``target_rate`` releases/second), and reports
  sustained ops/s plus p50/p99 wakeup latency.  Conservation invariants
  (slots out == slots back) are asserted before the result is returned.
* :func:`measure_relay_modes` — the manager-level companion.  Parks the
  same waiter count behind ``waiters // SHARD`` distinct predicates on a
  bare :class:`~repro.core.condition_manager.ConditionManager` and times
  steady-state relay passes with the incremental (dirty-set) search
  against the exhaustive one, so the throughput numbers ship with the
  per-pass evaluation ratio that explains them.

Latency accounting: the signaller stamps ``time.monotonic()`` after each
release; the next admitted waiter pops the oldest stamp, so a wakeup
latency is "release that freed a slot → admitted coroutine running again".
The first ``window`` admissions ride the initial free slots with no
release behind them and are excluded.  Rates are also reported per core
(``ops_per_sec / cpu_count``) so numbers from boxes with different core
counts — including the 1-CPU CI fallback — stay comparable.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.condition_manager import ConditionManager
from repro.core.instrumentation import MonitorStats
from repro.core.write_tracking import WriteTracker
from repro.predicates import compile_predicate
from repro.predicates.evaluator import evaluate
from repro.predicates.parser import parse_predicate

__all__ = ["ServiceLoadResult", "run_service_load", "measure_relay_modes"]

#: Scenario adapters: how each supported builtin scenario maps onto the
#: park/drain protocol.  ``params`` turns the admission window into the
#: scenario's parameter overrides; ``checks`` are conservation equalities
#: over the final monitor state (field name -> expected value callable).
_SCENARIOS: Dict[str, Dict[str, object]] = {
    "resource_pool": {
        "acquire": "acquire_low",
        "release": "release_low",
        "params": lambda window: {"size": window, "reserve": 0},
        "final_state": lambda window, waiters: {
            "free": window,
            "low_held": 0,
            "low_served": waiters,
        },
    },
    "fifo_semaphore": {
        "acquire": "acquire",
        "release": "release",
        "params": lambda window: {"permits": window},
        "final_state": lambda window, waiters: {
            "available": window,
            "acquired": waiters,
            "released": waiters,
        },
    },
}

#: Waiters per distinct predicate in :func:`measure_relay_modes`.
RELAY_SHARD = 16


@dataclass
class ServiceLoadResult:
    """Measurements of one sustained-load run."""

    scenario: str
    waiters: int
    window: int
    mechanism: str
    #: Admissions + releases completed (2 * waiters on a clean run).
    operations: int
    duration_seconds: float
    ops_per_sec: float
    #: ``ops_per_sec / cpu_count`` — the honest cross-machine number.
    ops_per_sec_per_core: float
    cpu_count: int
    #: Wakeup latencies in seconds (release -> admitted coroutine running).
    p50_wakeup_seconds: float
    p99_wakeup_seconds: float
    latency_samples: int
    #: Relevant monitor counters (signals sent, wakeups, evaluations, ...).
    stats: Dict[str, float] = field(default_factory=dict)

    def as_record(self) -> Dict[str, object]:
        """The result as a JSON-ready dictionary."""
        record = {
            name: getattr(self, name)
            for name in (
                "scenario",
                "waiters",
                "window",
                "mechanism",
                "operations",
                "duration_seconds",
                "ops_per_sec",
                "ops_per_sec_per_core",
                "cpu_count",
                "p50_wakeup_seconds",
                "p99_wakeup_seconds",
                "latency_samples",
            )
        }
        record["stats"] = dict(self.stats)
        return record


def percentile(samples: List[float], fraction: float) -> float:
    """The *fraction*-th percentile of *samples* (nearest-rank; 0 if empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def _build_scenario_monitor(
    scenario: str, window: int, backend, mechanism: str, **monitor_kwargs
):
    """Compile the builtin *scenario* with an admission window of *window*.

    The shared initials of the supported scenarios depend only on their
    parameters, so the state environment is just the merged parameter set —
    no role sizing is involved (the service driver brings its own
    coroutines).
    """
    from repro.problems.registry import get_problem

    adapter = _SCENARIOS.get(scenario)
    if adapter is None:
        raise ValueError(
            f"unsupported service-load scenario {scenario!r}; "
            f"supported: {sorted(_SCENARIOS)}"
        )
    problem = get_problem(scenario)
    spec = problem.spec
    merged = dict(spec.params)
    merged.update(adapter["params"](window))
    state: Dict[str, object] = dict(merged)
    for name, initial in spec.shared.items():
        if isinstance(initial, str):
            state[name] = evaluate(parse_predicate(initial), merged)
        else:
            state[name] = initial
    monitor = problem.monitor_cls(
        state, backend=backend, signalling=mechanism, **monitor_kwargs
    )
    return monitor, adapter


def run_service_load(
    waiters: int,
    scenario: str = "resource_pool",
    window: int = 64,
    mechanism: str = "autosynch",
    target_rate: Optional[float] = None,
    backend=None,
    **monitor_kwargs,
) -> ServiceLoadResult:
    """Park *waiters* coroutines on *scenario* and drain them; measure.

    Every waiter runs one admission action (``acquire_low`` /``acquire``)
    through the coroutine driver and reports completion on a queue; the
    signaller coroutine answers each completion with one release, keeping
    ``window`` admission slots circulating until all waiters are through.
    *target_rate* paces the signaller (releases per second; ``None`` =
    drain at full speed).  The returned result carries throughput, wakeup
    latency percentiles and the monitor's own counters; conservation of
    the scenario's admission slots is asserted before returning.
    """
    if waiters < 1:
        raise ValueError(f"waiters must be >= 1, got {waiters}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if backend is None:
        from repro.runtime.asyncio_backend import AsyncioBackend

        backend = AsyncioBackend()
    from repro.core.async_driver import run_action

    monitor, adapter = _build_scenario_monitor(
        scenario, window, backend, mechanism, **monitor_kwargs
    )
    acquire_action = adapter["acquire"]
    release_action = adapter["release"]

    completions: "asyncio.Queue[int]" = asyncio.Queue()
    release_stamps: "deque[float]" = deque()
    latencies: List[float] = []
    pacing = None if target_rate is None else 1.0 / target_rate

    async def waiter_task() -> None:
        await run_action(monitor, acquire_action)
        resumed = time.monotonic()
        if release_stamps:
            # The oldest unconsumed release is the one whose freed slot
            # admitted us; the first `window` admissions ride the initial
            # free slots (empty deque) and record no sample.
            latencies.append(resumed - release_stamps.popleft())
        completions.put_nowait(1)

    async def signaller_task() -> None:
        for _ in range(waiters):
            await completions.get()
            if pacing is not None:
                await asyncio.sleep(pacing)
            await run_action(monitor, release_action)
            release_stamps.append(time.monotonic())

    targets = [waiter_task for _ in range(waiters)]
    targets.append(signaller_task)
    names = [f"waiter-{index}" for index in range(waiters)] + ["signaller"]

    started = time.monotonic()
    backend.run(targets, names)
    duration = time.monotonic() - started

    expected = adapter["final_state"](window, waiters)
    for field_name, value in expected.items():
        actual = getattr(monitor, field_name)
        if actual != value:
            raise AssertionError(
                f"conservation violated after {scenario!r} service load: "
                f"{field_name} == {actual!r}, expected {value!r}"
            )

    operations = 2 * waiters
    cpu_count = os.cpu_count() or 1
    ops_per_sec = operations / duration if duration > 0 else float("inf")
    snapshot = monitor.stats.snapshot()
    return ServiceLoadResult(
        scenario=scenario,
        waiters=waiters,
        window=window,
        mechanism=mechanism,
        operations=operations,
        duration_seconds=duration,
        ops_per_sec=ops_per_sec,
        ops_per_sec_per_core=ops_per_sec / cpu_count,
        cpu_count=cpu_count,
        p50_wakeup_seconds=percentile(latencies, 0.50),
        p99_wakeup_seconds=percentile(latencies, 0.99),
        latency_samples=len(latencies),
        stats={
            name: snapshot[name]
            for name in (
                "waits",
                "wakeups",
                "spurious_wakeups",
                "signals_sent",
                "predicate_evaluations",
                "relay_signal_calls",
                "relay_entries_skipped",
                "eval_context_allocations",
                "template_globalizations",
            )
        },
    )


# ---------------------------------------------------------------------------
# Manager-level relay-mode comparison
# ---------------------------------------------------------------------------


class _BenchLock:
    def acquire(self):
        return None

    def release(self):
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


class _BenchCondition:
    def notify(self):
        return None

    def notify_n(self, n):
        return None

    def notify_all(self):
        return None

    def waiter_count(self):
        return 0


class _BenchBackend:
    name = "service-bench"

    def create_lock(self):
        return _BenchLock()

    def create_condition(self, lock):
        return _BenchCondition()

    def current_id(self):
        return 0


class _BenchState:
    """Attribute bag standing in for a monitor with sharded guard fields."""


def measure_relay_modes(
    waiters: int, passes: int = 20, shard: int = RELAY_SHARD
) -> Dict[str, object]:
    """Per-pass relay cost at *waiters* parked waiters, both search modes.

    Registers ``max(1, waiters // shard)`` distinct never-true predicates
    (each standing for *shard* co-parked waiters — the service tier's
    sharded-guard shape) on a bare condition manager, then times *passes*
    steady-state relay passes in which exactly one guard field is written:

    * ``incremental`` drains the dirty set — one evaluation per pass;
    * ``exhaustive`` re-evaluates every registered predicate per pass.

    Returns both modes' per-pass seconds and evaluations plus the
    exhaustive/incremental ratios the throughput benchmark asserts on.
    """
    shards = max(1, waiters // shard)
    forms = []
    for index in range(shards):
        name = f"slot{index}"
        forms.append(compile_predicate(f"{name} != 1", {name}).globalized())

    record: Dict[str, object] = {
        "waiters": waiters,
        "predicates": shards,
        "passes": passes,
    }
    for mode, tracker in (("incremental", WriteTracker()), ("exhaustive", None)):
        owner = _BenchState()
        for index in range(shards):
            setattr(owner, f"slot{index}", 1)  # slot != 1 is false: never woken
        backend = _BenchBackend()
        manager = ConditionManager(
            owner=owner,
            backend=backend,
            lock=backend.create_lock(),
            stats=MonitorStats(),
            use_tags=True,
            write_tracker=tracker,
        )
        for form in forms:
            entry = manager.acquire_entry(form, from_shared_predicate=True)
            manager.add_waiter(entry)
        stats = manager._stats
        # Warmup pass: every predicate evaluates once (false), so the
        # incremental manager reaches steady state (dirty set drained).
        assert not manager.relay_signal()
        evals_before = stats.predicate_evaluations
        started = time.perf_counter()
        for index in range(passes):
            name = f"slot{index % shards}"
            setattr(owner, name, 1)  # keeps the predicate false
            if tracker is not None:
                tracker.bump(name)
            assert not manager.relay_signal()
        elapsed = time.perf_counter() - started
        record[mode] = {
            "per_pass_seconds": elapsed / passes,
            "evals_per_pass": (stats.predicate_evaluations - evals_before) / passes,
            "eval_context_allocations": stats.eval_context_allocations,
        }
    incremental = record["incremental"]
    exhaustive = record["exhaustive"]
    record["eval_ratio"] = exhaustive["evals_per_pass"] / max(
        incremental["evals_per_pass"], 1e-9
    )
    record["per_pass_seconds_ratio"] = exhaustive["per_pass_seconds"] / max(
        incremental["per_pass_seconds"], 1e-12
    )
    return record
