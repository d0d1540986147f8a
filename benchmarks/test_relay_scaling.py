"""Tentpole benchmark: incremental relay signalling must be sublinear.

Parks N waiters (N from ``RELAY_SCALING_SCALES``, default 100/1k/10k) on a
condition manager, each behind a distinct never-true predicate over its own
monitor field (``w<i> != 1`` — ``!=`` is never taggable, so every entry
lands in the untagged exhaustive pool, the worst case for relay search).
Steady state then writes **one** field per monitor-exit pass:

* the **exhaustive** manager re-evaluates all N predicates every pass;
* the **incremental** manager drains the dirty set and re-evaluates only the
  one entry whose field was written, skipping the other N-1.

Per-pass wall time and evaluated-vs-skipped counts for both modes land in
``BENCH_relay_scaling.json`` at the repository root (CI uploads it as an
artifact).  Acceptance: the incremental per-pass cost grows sublinearly
between the two largest scales, and at the largest scale the incremental
pass performs >= 5x fewer predicate evaluations than the exhaustive pass.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.condition_manager import ConditionManager
from repro.core.instrumentation import MonitorStats
from repro.core.write_tracking import WriteTracker
from repro.predicates import compile_predicate

#: Where the perf-trajectory snapshot lands (repository root).
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_relay_scaling.json"

#: Waiter counts, overridable for CI smoke runs (``RELAY_SCALING_SCALES=100,1000``).
SCALES = tuple(
    int(raw)
    for raw in os.environ.get("RELAY_SCALING_SCALES", "100,1000,10000").split(",")
    if raw.strip()
)

#: Steady-state passes timed per (scale, mode).
PASSES = 30

#: Required evaluation advantage of the incremental pass at the largest scale.
REQUIRED_EVAL_RATIO = 5.0

#: Growing the waiter count 10x may grow the incremental per-pass cost by at
#: most half that factor (a strict-sublinearity bar with CI-noise headroom;
#: the dirty-set pass is expected to be near-constant).
SUBLINEAR_FACTOR = 0.5

_RESULTS: dict = {"scales": {}}


# -- minimal backend doubles (no thread ever actually blocks) ----------------


class _Lock:
    def acquire(self):
        return None

    def release(self):
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


class _Condition:
    def notify(self):
        return None

    def notify_n(self, n):
        return None

    def notify_all(self):
        return None

    def waiter_count(self):
        return 0


class _Backend:
    name = "bench"

    def create_lock(self):
        return _Lock()

    def create_condition(self, lock):
        return _Condition()

    def current_id(self):
        return 0


class _State:
    """Attribute bag standing in for a monitor with N scalar fields."""


def _make_manager(owner, tracker):
    backend = _Backend()
    return ConditionManager(
        owner=owner,
        backend=backend,
        lock=backend.create_lock(),
        stats=MonitorStats(),
        use_tags=True,
        write_tracker=tracker,
    ), tracker


def _park_distinct_fields(manager, forms):
    for form in forms:
        entry = manager.acquire_entry(form, from_shared_predicate=True)
        manager.add_waiter(entry)


def _distinct_field_forms(scale):
    """One ``w<i> != 1`` globalized predicate per waiter (shared across modes)."""
    forms = []
    for i in range(scale):
        name = f"w{i}"
        forms.append(compile_predicate(f"{name} != 1", {name}).globalized())
    return forms


def _steady_state_passes(manager, owner, tracker, scale):
    """Time PASSES relay passes, each after one field write; return metrics."""
    stats = manager._stats
    # Warmup pass: every predicate is evaluated once (false) so the
    # incremental manager reaches steady state (everything marked clean).
    warmup_started = time.perf_counter()
    assert not manager.relay_signal()
    warmup = time.perf_counter() - warmup_started

    evals_before = stats.predicate_evaluations
    skipped_before = stats.relay_entries_skipped
    started = time.perf_counter()
    for index in range(PASSES):
        name = f"w{index % scale}"
        setattr(owner, name, 1)  # write keeps the predicate false
        if tracker is not None:
            tracker.bump(name)
        assert not manager.relay_signal()
    elapsed = time.perf_counter() - started
    return {
        "passes": PASSES,
        "warmup_seconds": warmup,
        "per_pass_seconds": elapsed / PASSES,
        "evals_per_pass": (stats.predicate_evaluations - evals_before) / PASSES,
        "skipped_per_pass": (stats.relay_entries_skipped - skipped_before) / PASSES,
        # Total contexts constructed across warmup + PASSES relay passes:
        # the per-manager context pool keeps this at 1 however many passes
        # run (it was one fresh EvalContext per pass before pooling).
        "eval_context_allocations": stats.eval_context_allocations,
    }


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    """Write the collected numbers to BENCH_relay_scaling.json at teardown."""
    yield
    if _RESULTS["scales"]:
        RESULTS_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("scale", SCALES)
def test_relay_pass_scaling(scale):
    """Measure one (scale, mode) steady state per mode and record it."""
    forms = _distinct_field_forms(scale)
    record = {}
    for mode, tracker in (("incremental", WriteTracker()), ("exhaustive", None)):
        owner = _State()
        for i in range(scale):
            setattr(owner, f"w{i}", 1)  # w != 1 is false: nobody is ever woken
        manager, tracker = _make_manager(owner, tracker)
        _park_distinct_fields(manager, forms)
        record[mode] = _steady_state_passes(manager, owner, tracker, scale)
    _RESULTS["scales"][str(scale)] = record

    incremental = record["incremental"]
    exhaustive = record["exhaustive"]
    # The exhaustive pass visits everything; the incremental pass evaluates
    # only the one dirtied entry and skips the rest.
    assert exhaustive["evals_per_pass"] == scale
    assert incremental["evals_per_pass"] == 1
    assert incremental["skipped_per_pass"] == scale - 1


def test_eval_context_pooling_caps_allocations():
    """The pooled per-manager EvalContext must hold allocations at ~1 however
    many relay passes run (one warmup + PASSES steady-state passes each
    allocated a fresh context before pooling)."""
    largest = max(SCALES)
    record = _RESULTS["scales"][str(largest)]
    for mode in ("incremental", "exhaustive"):
        allocations = record[mode]["eval_context_allocations"]
        assert allocations <= 2, (
            f"{mode} manager allocated {allocations} EvalContexts over "
            f"{PASSES + 1} relay passes at {largest} waiters — the context "
            "pool is not engaging"
        )


def test_incremental_pass_cost_is_sublinear():
    """Between the two largest scales the incremental per-pass cost must grow
    by at most SUBLINEAR_FACTOR of the size ratio (exhaustive grows ~linearly)."""
    if len(SCALES) < 2:
        pytest.skip("need at least two scales to measure growth")
    small, large = sorted(SCALES)[-2:]
    small_record = _RESULTS["scales"][str(small)]
    large_record = _RESULTS["scales"][str(large)]
    size_ratio = large / small
    growth = (
        large_record["incremental"]["per_pass_seconds"]
        / small_record["incremental"]["per_pass_seconds"]
    )
    _RESULTS["sublinearity"] = {
        "scales": [small, large],
        "size_ratio": size_ratio,
        "incremental_growth": growth,
        "exhaustive_growth": (
            large_record["exhaustive"]["per_pass_seconds"]
            / small_record["exhaustive"]["per_pass_seconds"]
        ),
    }
    assert growth <= size_ratio * SUBLINEAR_FACTOR, (
        f"incremental per-pass cost grew {growth:.2f}x over a {size_ratio:.0f}x "
        f"size increase — not sublinear"
    )


def test_incremental_evaluates_at_least_5x_fewer():
    largest = max(SCALES)
    record = _RESULTS["scales"][str(largest)]
    ratio = record["exhaustive"]["evals_per_pass"] / max(
        record["incremental"]["evals_per_pass"], 1e-9
    )
    _RESULTS["eval_ratio_at_largest_scale"] = ratio
    assert ratio >= REQUIRED_EVAL_RATIO, (
        f"incremental pass only {ratio:.1f}x fewer evaluations than exhaustive "
        f"at {largest} waiters (required: {REQUIRED_EVAL_RATIO}x)"
    )
