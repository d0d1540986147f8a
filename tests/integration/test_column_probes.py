"""Column probes agree with the interpreter on every built-in tag column.

The relay search reads each tag column's shared expression through its
codegen closure (the column's probe) and falls back to the interpreter only
where codegen declined it or the probe was quarantined.  For every column
the built-in problems and scenarios create, in every state a relay pass
probes it, the closure must return what :func:`evaluate` returns and raise
the same :class:`EvaluationError` class.
"""

from __future__ import annotations

import pytest

from repro.core.condition_manager import ConditionManager
from repro.harness.saturation import run_workload
from repro.harness.service_load import run_service_load
from repro.predicates import EvaluationError
from repro.predicates.codegen import compile_expr
from repro.predicates.evaluator import evaluate, read_shared
from repro.problems import PROBLEMS, get_problem
from repro.runtime import SimulationBackend


def _outcome(run):
    try:
        value = run()
    except EvaluationError as error:
        return ("raises", type(error))
    return ("value", type(value), value)


class _Empty:
    """A state without any of the monitor's fields."""


#: Problems whose runs below park a waiter on a tagged predicate.
PROBED = {
    "barrier",
    "bounded_buffer",
    "h2o",
    "parameterized_bounded_buffer",
    "round_robin",
    "sleeping_barber",
    "traffic_intersection",
}


def _check_probes(monkeypatch):
    """Check every column a relay pass probes; returns the probe counts by
    column."""
    search = ConditionManager._search_index
    columns = {}

    def checked_search(self, index, limit, ctx):
        expr = index.shared_expr
        closure = compile_expr(expr)
        assert closure is not None, f"codegen declined column {index.expr_key!r}"
        assert index.probe is closure
        for state in (ctx.state, _Empty()):
            assert _outcome(lambda: closure(state, read_shared, {})) == _outcome(
                lambda: evaluate(expr, state)
            ), index.expr_key
        columns[index.expr_key] = columns.get(index.expr_key, 0) + 1
        return search(self, index, limit, ctx)

    monkeypatch.setattr(ConditionManager, "_search_index", checked_search)
    return columns


@pytest.mark.parametrize("problem_name", sorted(PROBLEMS))
def test_probes_agree_with_the_interpreter(monkeypatch, problem_name):
    columns = _check_probes(monkeypatch)
    for seed in (1, 7):
        run_workload(
            get_problem(problem_name),
            "autosynch",
            SimulationBackend(seed=seed),
            threads=4,
            total_ops=80,
            seed=seed,
            verify=True,
        )
    if problem_name in PROBED:
        assert columns, "the problem's tag columns were never probed"


@pytest.mark.parametrize("scenario", ["fifo_semaphore", "resource_pool"])
def test_service_load_probes_agree_with_the_interpreter(monkeypatch, scenario):
    columns = _check_probes(monkeypatch)
    run_service_load(200, scenario=scenario, window=8)
    assert columns
