"""Ablation: codegen closures vs. the tree-walking interpreter.

``GlobalizedPredicate.holds`` is the hottest call in the runtime — every
candidate entry on every monitor exit — so how a predicate is evaluated is
the single biggest per-evaluation lever.  Predicates run as codegen
closures; the interpreter is only their fallback and reference.  This
ablation measures two things:

* **micro**: a tight loop over the actual ``waituntil`` predicates of the
  bounded-buffer and readers-writers problems, comparing the tree-walking
  interpreter against the codegen closure.  The acceptance bar is a >= 2x
  speedup on both workloads.
* **macro**: full saturation runs of each problem, checking that codegen
  covers every workload predicate (the interpreter fallback never runs)
  and recording wall times.

Results are written to ``BENCH_eval_engine.json`` at the repository root;
CI uploads the file as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.predicates import compile_predicate
from repro.predicates.evaluator import _EMPTY_LOCALS, evaluate, read_shared

from conftest import run_problem_once

#: Where the perf-trajectory snapshot lands (repository root).
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_eval_engine.json"

#: Evaluations per timing sample in the micro benchmark.
MICRO_ITERATIONS = 20_000

#: Required micro speedup of the codegen closures (acceptance bar).
REQUIRED_SPEEDUP = 2.0


class _BufferState:
    """Monitor-shaped state for the bounded-buffer predicates."""

    def __init__(self) -> None:
        self.count = 3
        self.capacity = 16


class _ReadersWritersState:
    """Monitor-shaped state for the readers-writers predicates."""

    def __init__(self) -> None:
        self.serving = 7
        self.active_readers = 0
        self.active_writers = 0


#: The problems' real ``waituntil`` predicates (globalized forms).
WORKLOAD_PREDICATES = {
    "bounded_buffer": (
        _BufferState,
        [
            ("count < capacity", {"count", "capacity"}, {}),
            ("count > 0", {"count", "capacity"}, {}),
        ],
    ),
    "readers_writers": (
        _ReadersWritersState,
        [
            (
                "serving == t and active_writers == 0",
                {"serving", "active_readers", "active_writers"},
                {"t": 7},
            ),
            (
                "serving == t and active_readers == 0 and active_writers == 0",
                {"serving", "active_readers", "active_writers"},
                {"t": 7},
            ),
        ],
    ),
}

#: Collected results, flushed to RESULTS_PATH by the module fixture below.
_RESULTS: dict = {
    "holds_microbench": {},
    "workloads": {},
}


def _globalized_forms(problem: str):
    state_cls, sources = WORKLOAD_PREDICATES[problem]
    state = state_cls()
    forms = []
    for source, shared, local_values in sources:
        compiled = compile_predicate(source, shared, set(local_values))
        forms.append(compiled.globalized(local_values))
    return state, forms


def _time_holds(state, forms, engine) -> float:
    """Seconds for MICRO_ITERATIONS evaluations of every form (best of 3)."""
    import time

    if engine == "compiled":
        fns = [form.compiled_fn() for form in forms]
        assert all(fn is not None for fn in fns), "codegen declined a predicate"

        def body():
            for fn in fns:
                fn(state, read_shared, _EMPTY_LOCALS)

    else:
        exprs = [form.expr for form in forms]

        def body():
            for expr in exprs:
                evaluate(expr, state)

    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(MICRO_ITERATIONS):
            body()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    """Write the collected numbers to BENCH_eval_engine.json at teardown."""
    yield
    if _RESULTS["holds_microbench"] or _RESULTS["workloads"]:
        RESULTS_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("problem", sorted(WORKLOAD_PREDICATES))
def test_compiled_holds_speedup(benchmark, problem):
    """The codegen closures must evaluate the problem's own predicates at
    least 2x faster than the interpreter."""

    def compare():
        state, forms = _globalized_forms(problem)
        interpreted = _time_holds(state, forms, "interpreted")
        compiled = _time_holds(state, forms, "compiled")
        return interpreted, compiled

    interpreted, compiled = benchmark.pedantic(compare, rounds=1, iterations=1)
    evaluations = MICRO_ITERATIONS * len(WORKLOAD_PREDICATES[problem][1])
    speedup = interpreted / compiled
    _RESULTS["holds_microbench"][problem] = {
        "interpreted_us_per_eval": interpreted * 1e6 / evaluations,
        "compiled_us_per_eval": compiled * 1e6 / evaluations,
        "speedup": speedup,
    }
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"codegen closures only {speedup:.2f}x faster than interpreted "
        f"on {problem} (required: {REQUIRED_SPEEDUP}x)"
    )


@pytest.mark.parametrize("problem", sorted(WORKLOAD_PREDICATES))
def test_eval_engine_workload(benchmark, problem):
    """Full saturation runs: codegen must serve every evaluation, and wall
    times feed the JSON."""
    rounds = []

    def run():
        result = run_problem_once(problem, "autosynch", threads=4, total_ops=400)
        rounds.append(result)
        return result

    benchmark.pedantic(run, rounds=3, iterations=1)
    # Best-of-rounds: at this scale (a few hundred evaluations, tens of ms)
    # run-to-run scheduler noise dominates, so the minimum is the only
    # comparable statistic.
    result = min(rounds, key=lambda r: r.wall_time)
    stats = result.monitor_stats
    assert stats["compiled_evaluations"] > 0
    # The fallback interpreter must not have been needed: every workload
    # predicate is codegen-supported.
    assert stats["interpreted_evaluations"] == 0
    _RESULTS["workloads"][problem] = {
        "wall_time": result.wall_time,
        "per_op_us": result.wall_time * 1e6 / result.operations,
        "rounds_wall_times": [r.wall_time for r in rounds],
        "operations": result.operations,
        "compiled_evaluations": stats["compiled_evaluations"],
        "interpreted_evaluations": stats["interpreted_evaluations"],
        "shared_read_cache_hits": stats["shared_read_cache_hits"],
        "relay_entries_skipped": stats["relay_entries_skipped"],
    }
    benchmark.extra_info["predicate_evaluations"] = stats["predicate_evaluations"]
    benchmark.extra_info["shared_read_cache_hits"] = stats["shared_read_cache_hits"]
