"""Ablation: compiled vs. interpreted predicate-evaluation engines.

``GlobalizedPredicate.holds`` is the hottest call in the runtime — every
candidate entry on every monitor exit — so the evaluation engine is the
single biggest per-evaluation lever.  This ablation measures it two ways:

* **micro**: a tight loop over the actual ``waituntil`` predicates of the
  bounded-buffer and readers-writers problems, comparing the tree-walking
  interpreter against the codegen closure.  The acceptance bar is a >= 2x
  speedup on both workloads.
* **macro**: full saturation runs of each problem under
  ``eval_engine="interpreted"`` vs ``"compiled"``, checking that the
  compiled engine really serves the evaluations (counter attribution) and
  recording wall times.

Results are written to ``BENCH_eval_engine.json`` at the repository root —
the start of the perf trajectory for the evaluation engine; CI uploads the
file as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.predicates import ENGINES, compile_predicate
from repro.predicates.evaluator import _EMPTY_LOCALS, evaluate, read_shared

from conftest import run_problem_once

#: Where the perf-trajectory snapshot lands (repository root).
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_eval_engine.json"

#: Evaluations per timing sample in the micro benchmark.
MICRO_ITERATIONS = 20_000

#: Required micro speedup of the compiled engine (acceptance bar).
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
    # Findings worth keeping next to the numbers they explain.
    "notes": {
        "readers_writers_small_scale_crossover": (
            "At 400-op scale the interpreted engine can beat compiled wall "
            "time on readers_writers even though compiled is ~7x faster per "
            "evaluation.  Cause: the problem's predicates are complex, so "
            "every thread's globalization (serving == <id> and ...) is a "
            "distinct form paying one-time codegen compilation that ~384 "
            "evaluations cannot amortize; and tag pruning leaves at most one "
            "candidate per relay pass, so the per-pass EvalContext never "
            "re-reads a shared variable (shared_read_cache_hits == 0) and "
            "per-evaluation savings are all there is.  The crossover "
            "disappears at larger total_ops; wall times recorded here are "
            "best-of-rounds minima to keep scheduler noise out of the "
            "comparison."
        ),
    },
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
    """The compiled engine must evaluate the problem's own predicates at
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
        f"compiled engine only {speedup:.2f}x faster than interpreted "
        f"on {problem} (required: {REQUIRED_SPEEDUP}x)"
    )


@pytest.mark.parametrize("problem", sorted(WORKLOAD_PREDICATES))
@pytest.mark.parametrize("engine", ENGINES)
def test_eval_engine_workload(benchmark, problem, engine):
    """Full saturation runs per engine: counters must attribute the
    evaluations to the selected engine, and wall times feed the JSON."""
    rounds = []

    def run():
        result = run_problem_once(
            problem, "autosynch", threads=4, total_ops=400, eval_engine=engine
        )
        rounds.append(result)
        return result

    benchmark.pedantic(run, rounds=3, iterations=1)
    # Best-of-rounds: at this scale (a few hundred evaluations, tens of ms)
    # the run-to-run scheduler noise is larger than the engines' wall-time
    # difference, so the minimum is the only comparable statistic.
    result = min(rounds, key=lambda r: r.wall_time)
    stats = result.monitor_stats
    if engine == "compiled":
        assert stats["compiled_evaluations"] > 0
        # The fallback interpreter must not have been needed: every workload
        # predicate is codegen-supported.
        assert stats["interpreted_evaluations"] == 0
    else:
        assert stats["compiled_evaluations"] == 0
        assert stats["interpreted_evaluations"] > 0
    _RESULTS["workloads"].setdefault(problem, {})[engine] = {
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
