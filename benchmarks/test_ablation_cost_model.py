"""Ablation: sensitivity of the headline result to the cost-model weights.

The simulation backend measures event *counts*; turning them into a modelled
runtime requires per-event costs (see the ``repro.harness.cost_model``
module docstring).  This ablation re-evaluates the
Figure 14 conclusion — AutoSynch beats the signalAll-based explicit monitor
on the parameterized bounded buffer — under cost models that vary the
relative price of a context switch by two orders of magnitude, showing the
qualitative conclusion does not depend on the exact weights.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_problem_once
from repro.harness.cost_model import CostModel

CONSUMERS = 24
TOTAL_OPS = 480

COST_MODELS = {
    "cheap-switches": CostModel(context_switch_us=1.0, predicate_evaluation_us=0.4),
    "default": CostModel(),
    "expensive-switches": CostModel(context_switch_us=100.0, predicate_evaluation_us=0.4),
}


def run_both():
    explicit = run_problem_once(
        "parameterized_bounded_buffer", "explicit", CONSUMERS, TOTAL_OPS
    )
    autosynch = run_problem_once(
        "parameterized_bounded_buffer", "autosynch", CONSUMERS, TOTAL_OPS
    )
    return explicit, autosynch


def test_ablation_cost_model_robustness(benchmark):
    explicit, autosynch = benchmark.pedantic(run_both, rounds=1, iterations=1)
    for label, model in COST_MODELS.items():
        explicit_runtime = explicit.modelled_runtime(model)
        autosynch_runtime = autosynch.modelled_runtime(model)
        benchmark.extra_info[f"{label}_ratio"] = round(
            explicit_runtime / autosynch_runtime, 2
        )
        assert autosynch_runtime < explicit_runtime, (
            f"AutoSynch should win under the {label} cost model"
        )


@pytest.mark.parametrize("label", sorted(COST_MODELS))
def test_ablation_cost_model_ratio_reported(benchmark, label):
    """Per-model benchmark entries so ratios appear in the comparison table."""
    model = COST_MODELS[label]

    def run():
        explicit, autosynch = run_both()
        return explicit.modelled_runtime(model) / autosynch.modelled_runtime(model)

    ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["explicit_over_autosynch"] = round(ratio, 2)
    assert ratio > 1.0
