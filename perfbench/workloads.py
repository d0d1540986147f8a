"""The benchmark's three workloads, each driven through the program's public API.

A workload runs *rounds*.  Every round builds its inputs afresh from the
workload seed, runs the timed region, checks the program's outputs and
returns a :class:`Round`.  Rounds come in three modes:

* ``plain`` — nothing but the workload; end-to-end times come from these.
* ``observe`` — saturation-sim only: the same round with a per-decision
  observer on the simulation kernel, which timestamps every scheduling
  decision to recover wakeup latencies.  Kept out of the throughput rounds
  because the observer itself costs about a tenth of the round.
* ``traced`` — the same round with span wrappers installed (see
  :mod:`tracing`); only the traced run (``--trace 1``) uses it.

Layers measured (module names of ``src/repro``): ``core.condition_manager``
(relay search, tags), ``core.write_tracking``, ``predicates``,
``runtime.simulation`` (the kernel), ``runtime.asyncio_backend`` with
``core.async_driver``, and ``explore.engine`` / ``explore.dpor``.
``runtime.threads`` is not measured: with the interpreter lock and two cores
an OS-thread saturation run times the OS scheduler, not this program.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.condition_manager import ConditionManager
from repro.explore import ExploreTask, explore_dpor
from repro.explore.engine import clear_runtime_cache, task_runtime
from repro.harness import service_load
from repro.harness.cost_model import DEFAULT_COST_MODEL
from repro.harness.saturation import run_workload
from repro.problems.registry import get_problem
from repro.runtime.asyncio_backend import AsyncioBackend
from repro.runtime.simulation import SimulationBackend

from calibration import REFERENCE_INTERVAL_S, reference_samples, speed_of
from tracing import SpanStore

__all__ = ["LAYER_METRICS", "Round", "WORKLOADS"]

#: Per-layer metrics of the traced run: name -> unit.  Every workload
#: reports all of them; a layer a workload bypasses reads 0.
LAYER_METRICS: Dict[str, str] = {
    "predicates.evals_per_op": "evals/op",
    "predicates.batched_share": "ratio",
    "predicates.reuse_ratio": "ratio",
    "relay.calls_per_op": "calls/op",
    "relay.busy_s": "s",
    "relay.signals_per_call": "ratio",
    "relay.tag_checks_per_op": "checks/op",
    "relay.skip_ratio": "ratio",
    "relay.spurious_ratio": "ratio",
    "writes.tracked_per_op": "writes/op",
    "kernel.switches_per_op": "switches/op",
    "kernel.us_per_switch": "us",
    "kernel.contentions_per_op": "count/op",
    "async.release_busy_s": "s",
    "async.park_s": "s",
    "async.drain_s": "s",
    "explore.schedules": "count",
    "explore.run_s": "s",
    "explore.build_s": "s",
    "explore.classify_s": "s",
    "explore.oracle_s": "s",
    "dpor.self_s": "s",
    "dpor.merged_configs": "count",
    "explore.schedule_p50_ms": "ms",
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "trace.overhead": "ratio",
    "wakeup.p99_ms": "ms",
}

RELAY_ENTRY_POINTS = ("relay_signal", "signal_many", "relay_signal_fifo")


@dataclass
class Round:
    """What one round measured and checked."""

    #: Operations the round attempted: monitor operations (saturation-sim),
    #: admissions plus releases (service-*), schedules (explore-dpor).
    ops: int
    #: Host seconds of the timed region.
    timed_s: float = 0.0
    #: Host seconds from the round's start to its checked result.
    verdict_s: float = 0.0
    #: Host seconds of the round outside its timed region (None: not a
    #: set-up sample for this workload).
    setup_s: Optional[float] = None
    #: Latency samples in seconds (wakeups, or per-schedule times).
    samples: List[float] = field(default_factory=list)
    #: Exact simulated quantities; must repeat bit-for-bit for a seed.
    exact: Dict[str, float] = field(default_factory=dict)
    #: Monitor and backend counters the per-layer ratios come from.
    stats: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics specific to the workload (traced rounds only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Reference-loop samples taken inside the round, outside its times.
    reference: List[float] = field(default_factory=list)
    #: Calibration factor of the round's host times (set by the runner).
    speed: float = 1.0
    #: Why the output check failed, or None.
    error: Optional[str] = None


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def monitor_layers(stats: Dict[str, float], ops: int, kernel: bool) -> Dict[str, float]:
    """Per-layer counter ratios from a monitor (and backend) counter dict."""
    evaluations = stats.get("predicate_evaluations", 0)
    registrations = stats.get("predicate_registrations", 0)
    reuses = stats.get("predicate_reuses", 0)
    relay_calls = stats.get("relay_signal_calls", 0)
    skipped = stats.get("relay_entries_skipped", 0)
    layers = {
        "predicates.evals_per_op": ratio(evaluations, ops),
        "predicates.batched_share": ratio(stats.get("batched_evaluations", 0), evaluations),
        "predicates.reuse_ratio": ratio(reuses, registrations + reuses),
        "relay.calls_per_op": ratio(relay_calls, ops),
        "relay.signals_per_call": ratio(stats.get("signals_sent", 0), relay_calls),
        "relay.tag_checks_per_op": ratio(
            stats.get("tag_hash_lookups", 0) + stats.get("tag_heap_checks", 0), ops
        ),
        "relay.skip_ratio": ratio(skipped, skipped + evaluations),
        "relay.spurious_ratio": ratio(
            stats.get("spurious_wakeups", 0), stats.get("wakeups", 0)
        ),
        "writes.tracked_per_op": ratio(stats.get("tracked_writes", 0), ops),
    }
    if kernel:
        layers["kernel.switches_per_op"] = ratio(stats.get("context_switches", 0), ops)
        layers["kernel.contentions_per_op"] = ratio(stats.get("lock_contentions", 0), ops)
    return layers


def wrap_relay(store: SpanStore) -> None:
    for attr in RELAY_ENTRY_POINTS:
        store.wrap(ConditionManager, attr, "relay")


def kernel_wakeups(points: Sequence[Tuple[float, object]]) -> List[float]:
    """Wakeup latencies (seconds) from timestamped kernel decisions.

    A thread parks when the decision after its slice says it is waiting on
    a condition.  Its wakeup runs from the start of the slice in which it
    became runnable again (the slice that signalled it) to the decision
    that dispatches it, so every sample spans at least one slice.
    """
    parked = set()
    woken_at: Dict[int, float] = {}
    samples: List[float] = []
    previous_time = 0.0
    previous_chosen = None
    for stamp, point in points:
        if previous_chosen is not None and point.reason.startswith("waiting on condition"):
            parked.add(previous_chosen)
        for tid in point.runnable:
            if tid in parked and tid not in woken_at:
                woken_at[tid] = previous_time
        if point.chosen in woken_at:
            samples.append(stamp - woken_at.pop(point.chosen))
            parked.discard(point.chosen)
        previous_time, previous_chosen = stamp, point.chosen
    return samples


def failed_round(ops: int, started: float) -> Round:
    """A round whose run or output check raised: all its operations failed."""
    return Round(
        ops=ops,
        verdict_s=time.perf_counter() - started,
        error=traceback.format_exc(limit=4),
    )


class Workload:
    """Common shape: ``prepare`` once, then ``run_round`` per round."""

    name = ""
    #: Round modes cycled through in untraced and traced runs.
    untraced_modes: Tuple[str, ...] = ("plain",)
    traced_modes: Tuple[str, ...] = ("plain", "traced")
    #: Fewest timed rounds a run makes, whatever its time budget.
    min_rounds = 3
    #: Whether the workload runs on the simulation kernel.
    uses_kernel = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> List[Tuple[float, float]]:
        """One-time preparation; returns extra set-up samples as
        (seconds, calibration factor) pairs."""
        return []

    def warm_up(self) -> Round:
        return self.run_round("plain", None)

    def run_round(self, mode: str, store: Optional[SpanStore]) -> Round:
        raise NotImplementedError

    def traced_layers(self, store: SpanStore, round_id: int, rnd: Round) -> Dict[str, float]:
        """Per-layer metrics read from the spans of traced round *round_id*."""
        return {}

    def close(self) -> None:
        """Stop every thread the workload left parked."""


class SaturationSim(Workload):
    """§6.1 saturation test of the parameterized bounded buffer on the kernel."""

    name = "saturation-sim"
    untraced_modes = ("plain", "observe")
    traced_modes = ("plain", "observe", "traced")
    min_rounds = 4
    uses_kernel = True
    CONSUMERS = 16
    TOTAL_OPS = 4000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.problem = get_problem("parameterized_bounded_buffer")

    def run_round(self, mode: str, store: Optional[SpanStore]) -> Round:
        points: List[Tuple[float, object]] = []
        observer = None
        if mode == "observe":
            clock = time.perf_counter

            def observer(point, _append=points.append):
                _append((clock(), point))

        if mode == "traced":
            wrap_relay(store)
            store.wrap(SimulationBackend, "run", "kernel.run")
        backend = SimulationBackend(seed=self.seed, observer=observer)
        started = time.perf_counter()
        try:
            result = run_workload(
                self.problem,
                "autosynch",
                backend,
                threads=self.CONSUMERS,
                total_ops=self.TOTAL_OPS,
                seed=self.seed,
                verify=True,
            )
        except Exception:
            return failed_round(2 * self.TOTAL_OPS, started)
        finally:
            backend.shutdown()
            if store is not None:
                store.unwrap_all()
        verdict = time.perf_counter() - started
        ops = result.operations
        stats = dict(result.monitor_stats)
        stats.update(result.backend_metrics)
        switches = result.context_switches
        modelled = result.modelled_runtime(DEFAULT_COST_MODEL)
        return Round(
            ops=ops,
            timed_s=result.wall_time,
            verdict_s=verdict,
            setup_s=verdict - result.wall_time,
            samples=kernel_wakeups(points),
            exact={
                "ops": ops,
                "modelled_ops_per_s": ops / modelled,
                "kernel.switches_per_op": switches / ops,
                "predicates.evals_per_op": result.predicate_evaluations / ops,
                "relay.spurious_ratio": ratio(
                    stats["spurious_wakeups"], stats["wakeups"]
                ),
            },
            stats=stats,
            layers={"kernel.us_per_switch": ratio(result.wall_time, switches) * 1e6},
        )


class ServiceFifo(Workload):
    """8,000 coroutine waiters on ``fifo_semaphore`` drained by a closed-loop
    signaller at full speed (asyncio backend, admission window 64)."""

    name = "service-fifo"
    SCENARIO = "fifo_semaphore"
    RELEASE_ACTION = "release"
    WAITERS = 8_000
    WINDOW = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # run_service_load summarises its wakeup samples through the module's
        # percentile function, after its timed region; keeping a reference
        # to the sample list lets the benchmark pool samples across rounds.
        self._samples: List[float] = []
        self._percentile = service_load.percentile

        def keep_samples(samples, fraction):
            self._samples = samples
            return self._percentile(samples, fraction)

        service_load.percentile = keep_samples

    def close(self) -> None:
        service_load.percentile = self._percentile

    def run_round(self, mode: str, store: Optional[SpanStore]) -> Round:
        monitors: list = []
        if mode == "traced":
            from repro.core import async_driver

            release = self.RELEASE_ACTION

            def on_call(monitor, action, **_):
                if not monitors:
                    monitors.append(monitor)

            wrap_relay(store)
            store.wrap(AsyncioBackend, "run", "async.run")
            store.wrap_async(
                async_driver,
                "run_action",
                "async.release",
                keep=lambda monitor, action, **_: action == release,
                on_call=on_call,
            )
        self._samples = []
        started = time.perf_counter()
        try:
            backend = AsyncioBackend()
            result = service_load.run_service_load(
                self.WAITERS,
                scenario=self.SCENARIO,
                window=self.WINDOW,
                mechanism="autosynch",
                backend=backend,
            )
            expected = self.WAITERS - self.WINDOW
            if result.latency_samples != expected:
                raise AssertionError(
                    f"{result.latency_samples} wakeup samples, expected {expected}"
                )
        except Exception:
            return failed_round(2 * self.WAITERS, started)
        finally:
            if store is not None:
                store.unwrap_all()
        verdict = time.perf_counter() - started
        ops = result.operations
        stats = dict(monitors[0].stats.snapshot()) if monitors else dict(result.stats)
        modelled = DEFAULT_COST_MODEL.modelled_runtime_seconds(
            backend.metrics.snapshot(), result.stats
        )
        return Round(
            ops=ops,
            timed_s=result.duration_seconds,
            verdict_s=verdict,
            setup_s=verdict - result.duration_seconds,
            samples=self._samples,
            exact={
                "ops": ops,
                "modelled_ops_per_s": ops / modelled,
                "predicates.evals_per_op": result.stats["predicate_evaluations"] / ops,
                "relay.spurious_ratio": ratio(
                    result.stats["spurious_wakeups"], result.stats["wakeups"]
                ),
            },
            stats=stats,
        )

    def traced_layers(self, store: SpanStore, round_id: int, rnd: Round) -> Dict[str, float]:
        layers = {"async.release_busy_s": store.total(round_id, ["async.release"])}
        run = next((s for s in store.round_spans(round_id) if s[0] == "async.run"), None)
        first_release = store.first_start(round_id, "async.release")
        if run is not None and first_release is not None:
            layers["async.park_s"] = first_release - run[1]
            layers["async.drain_s"] = run[2] - first_release
        return layers


class ExploreDpor(Workload):
    """Exhaust bounded_buffer (3 threads, 9 ops) under DPOR, serially."""

    name = "explore-dpor"
    min_rounds = 2
    uses_kernel = True
    #: Set-up repetitions measured before the warm-up round.
    SETUPS = 40
    #: Schedules of the warm-up round (fills carrier pools and memos).
    WARM_UP_SCHEDULES = 400

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.task = ExploreTask(
            "bounded_buffer", "autosynch", threads=3, total_ops=9, seed=seed
        )

    def prepare(self) -> List[Tuple[float, float]]:
        """Time the task's cold set-up: ``task_runtime`` plus the first
        schedule, which builds the runtime's backend and carrier threads.
        A set-up takes milliseconds, so each is calibrated by the reference
        samples right before and after it."""
        samples = []
        before = reference_samples(2)
        for _ in range(self.SETUPS):
            clear_runtime_cache()
            started = time.perf_counter()
            task_runtime(self.task)
            explore_dpor(self.task, max_schedules=1)
            seconds = time.perf_counter() - started
            after = reference_samples(2)
            samples.append((seconds, speed_of(before + after)))
            before = after
        return samples

    def warm_up(self) -> Round:
        started = time.perf_counter()
        try:
            report = explore_dpor(self.task, max_schedules=self.WARM_UP_SCHEDULES)
            if not report.ok:
                raise AssertionError(f"{report.failures_total} failing schedules")
        except Exception:
            return failed_round(self.WARM_UP_SCHEDULES, started)
        return Round(ops=report.schedules_visited)

    def close(self) -> None:
        clear_runtime_cache()

    def run_round(self, mode: str, store: Optional[SpanStore]) -> Round:
        """One exhaustive exploration.  A round takes seconds, so reference
        samples are also taken inside it, every ``REFERENCE_INTERVAL_S``,
        and their time is left out of the round's times."""
        intervals: List[float] = []
        reference: List[float] = []
        totals: Dict[str, float] = {}
        modelled = 0.0
        paused = 0.0
        clock = time.perf_counter
        cost = DEFAULT_COST_MODEL.modelled_runtime_seconds

        def progress(count, outcome):
            nonlocal last, modelled, paused, next_reference
            now = clock()
            intervals.append(now - last)
            last = now
            if now >= next_reference:
                reference.extend(reference_samples(1))
                last = clock()
                paused += last - now
                next_reference = last + REFERENCE_INTERVAL_S
            backend_metrics, monitor_stats = outcome.backend_metrics, outcome.monitor_stats
            modelled += cost(backend_metrics, monitor_stats)
            for counters in (backend_metrics, monitor_stats):
                for key, value in counters.items():
                    totals[key] = totals.get(key, 0) + value

        if mode == "traced":
            wrap_relay(store)
            store.wrap(SimulationBackend, "run", "kernel.run")
        started = last = time.perf_counter()
        next_reference = started + REFERENCE_INTERVAL_S
        try:
            report = explore_dpor(self.task, progress=progress)
            verdict = time.perf_counter() - started - paused
            if not (report.complete and report.ok):
                raise AssertionError(
                    f"exploration not a clean proof: complete={report.complete} "
                    f"failures={report.failures_total}"
                )
        except Exception:
            return failed_round(max(len(intervals), 1), started)
        finally:
            if store is not None:
                store.unwrap_all()
        schedules = report.schedules_visited
        timings = report.timings
        return Round(
            ops=schedules,
            timed_s=verdict,
            verdict_s=verdict,
            samples=intervals,
            exact={
                "explore.schedules": schedules,
                "dpor.merged_configs": report.stats["merged_configs"],
                "modelled_ops_per_s": schedules / modelled,
                "kernel.switches_per_op": totals.get("context_switches", 0) / schedules,
                "predicates.evals_per_op": totals.get("predicate_evaluations", 0) / schedules,
                "relay.spurious_ratio": ratio(
                    totals.get("spurious_wakeups", 0), totals.get("wakeups", 0)
                ),
            },
            stats=totals,
            layers={
                "explore.schedules": schedules,
                "dpor.merged_configs": report.stats["merged_configs"],
                "explore.run_s": timings.get("run", 0.0),
                "explore.build_s": timings.get("build", 0.0),
                "explore.classify_s": timings.get("classify", 0.0),
                "explore.oracle_s": timings.get("oracle", 0.0),
                "dpor.self_s": verdict - sum(timings.values()),
                "explore.schedule_p50_ms": statistics.median(intervals) * 1e3,
            },
            reference=reference,
        )

    def traced_layers(self, store: SpanStore, round_id: int, rnd: Round) -> Dict[str, float]:
        switches = rnd.stats.get("context_switches", 0)
        kernel_s = store.total(round_id, ["kernel.run"])
        return {"kernel.us_per_switch": ratio(kernel_s, switches) * 1e6}


WORKLOADS = {
    workload.name: workload
    for workload in (SaturationSim, ServiceFifo, ExploreDpor)
}
