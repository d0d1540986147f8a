"""Systematic schedule exploration for the simulation backend.

The deterministic simulation kernel makes every run a pure function of its
scheduling decisions, which turns correctness checking into a search problem:
instead of hoping a handful of seeds happens to hit a buggy interleaving,
this package *manufactures* interleavings systematically and checks
per-problem safety/liveness oracles at every scheduling decision point.

Two exploration modes, both built on the scheduler registry of
:mod:`repro.runtime.simulation.schedulers`:

* **DFS** (:func:`explore_dfs`) — bounded exhaustive depth-first search over
  the tree of scheduling decisions.  Feasible for small thread/op counts and
  *complete*: if no schedule violates an oracle, none exists at that size.
  :func:`explore_dpor` runs the same serial frontier loop with
  configuration merging and symmetry plugged in (:mod:`repro.explore.dpor`):
  the identical violation set, reached in exponentially fewer runs.
* **Swarm** (:func:`explore_swarm`) — many independent seeded-random
  schedules for configurations too large to exhaust, optionally sharded
  across worker processes through the harness executor registry (the
  exhaustive modes are serial: a schedule costs less than shipping it).

Fuzz mode (:mod:`repro.explore.fuzz`, ``python -m repro.explore --mode
fuzz``) feeds the swarm with *generated* workloads: seeded
valid-by-construction scenario specs from :mod:`repro.scenarios.generate`,
each compiled and registered on the fly with its invariants enforced as
oracles, so exploration sweeps policy × scheduler × scenario instead of
only the paper's seven problems.

Chaos mode (:mod:`repro.explore.chaos`, ``python -m repro.explore --mode
chaos``) sweeps :mod:`repro.faults` fault plans across problems and
signalling policies and holds every run to the recovery-or-classified
contract: an injected fault must either be absorbed/self-healed (the run
completes, with degradation counters as evidence) or end in a bounded
verdict the plan declares acceptable — never a silent hang.

Every failing schedule is shrunk to a near-minimal decision prefix
(:mod:`repro.explore.shrink`) and can be written to a JSON repro file that
``python -m repro.explore --replay FILE`` re-executes bit-identically
(:mod:`repro.explore.repro_files`).
"""

from repro.explore.chaos import (
    ChaosFailure,
    ChaosReport,
    chaos_sweep,
    kind_is_acceptable,
)
from repro.explore.dpor import DPOR_MODE, explore_dpor
from repro.explore.engine import (
    ExplorationFailure,
    ExplorationReport,
    ExploreTask,
    OracleViolationError,
    ScheduleOutcome,
    StarvationBudgetWatcher,
    explore_dfs,
    explore_swarm,
    run_schedule,
)
from repro.explore.fuzz import FuzzReport, ScenarioFuzzResult, fuzz_scenarios
from repro.explore.repro_files import (
    REPRO_FORMAT,
    load_repro,
    replay_repro,
    repro_payload,
    write_repro,
)
from repro.explore.shrink import ShrinkResult, shrink_failure

__all__ = [
    "ChaosFailure",
    "ChaosReport",
    "DPOR_MODE",
    "ExplorationFailure",
    "ExplorationReport",
    "ExploreTask",
    "FuzzReport",
    "OracleViolationError",
    "REPRO_FORMAT",
    "ScenarioFuzzResult",
    "ScheduleOutcome",
    "ShrinkResult",
    "StarvationBudgetWatcher",
    "chaos_sweep",
    "explore_dfs",
    "explore_dpor",
    "explore_swarm",
    "fuzz_scenarios",
    "kind_is_acceptable",
    "load_repro",
    "replay_repro",
    "repro_payload",
    "run_schedule",
    "shrink_failure",
    "write_repro",
]
