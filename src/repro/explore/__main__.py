"""Command-line entry point for schedule exploration.

Examples
--------
Exhaustively explore every schedule of a tiny bounded buffer::

    python -m repro.explore --problem bounded_buffer --mechanism autosynch \
        --mode dfs --threads 2 --ops 4 --param capacity=1

Swarm-explore a larger configuration across 4 worker processes::

    python -m repro.explore --problem h2o --mechanism autosynch --mode swarm \
        --threads 4 --ops 12 --schedules 500 --executor process --jobs 4

Fuzz: sweep policy x scheduler x *generated* scenario (specs come from the
seeded generator, invariants are enforced as oracles)::

    python -m repro.explore --mode fuzz --count 5 --schedules 100

Explore a declarative scenario loaded from a JSON spec file::

    python -m repro.explore --scenario scenarios/ping_pong.json --mode dfs --ops 4

Chaos sweep: every registered fault plan across two problems, with
self-healing recovery on, asserting the recovery-or-classified contract::

    python -m repro.explore --mode chaos --problem bounded_buffer,h2o \
        --mechanism all --schedules 10

Replay a failure repro file bit-identically (fault plans embedded in a
chaos repro are re-injected automatically)::

    python -m repro.explore --replay repros/bounded_buffer_....json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.explore.engine import (
    DEFAULT_MAX_STEPS,
    ExplorationFailure,
    ExplorationReport,
    ExploreTask,
    explore_dfs,
    explore_swarm,
)
from repro.explore.chaos import DEFAULT_SCHEDULES_PER_CONFIG, chaos_sweep
from repro.explore.dpor import explore_dpor
from repro.explore.fuzz import (
    DEFAULT_SCENARIO_COUNT,
    DEFAULT_SCHEDULES,
    fuzz_scenarios,
)
from repro.explore.repro_files import replay_repro, repro_payload, write_repro
from repro.explore.shrink import shrink_failure
from repro.harness.execution import available_executors, describe_executor
from repro.problems import available_problems, describe_problem, get_problem
from repro.runtime.simulation import available_schedulers, describe_scheduler
from repro.scenarios import ScenarioError, load_scenario_file, register_scenario

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autosynch-explore",
        description=(
            "Systematically explore simulation schedules, check per-problem "
            "oracles at every scheduling decision, shrink failures and write "
            "replayable JSON repro files."
        ),
    )
    parser.add_argument(
        "--problem",
        default=None,
        metavar="NAME",
        help=(
            "which registered problem to explore (see --list-problems; "
            "includes the built-in declarative scenarios)"
        ),
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help=(
            "load a declarative scenario spec (JSON), register it as a "
            "problem and explore it (implies --problem <its name>)"
        ),
    )
    parser.add_argument(
        "--mechanism",
        default=None,
        metavar="NAME[,NAME...]",
        help=(
            "mechanism(s) to explore: 'explicit', any registered signalling "
            "policy, or 'all' for every mechanism the problem supports"
        ),
    )
    parser.add_argument(
        "--mode",
        choices=("dfs", "swarm", "fuzz", "chaos"),
        default="dfs",
        help=(
            "dfs = bounded exhaustive search, swarm = seeded random "
            "sampling, fuzz = swarm over seeded *generated* scenarios, "
            "chaos = fault-injection sweep under the recovery oracle"
        ),
    )
    parser.add_argument(
        "--dpor",
        action="store_true",
        help=(
            "dfs only: prune schedules by configuration merging (each run "
            "stops at an already-explored configuration) and thread "
            "symmetry; finds the identical violation set in far fewer runs; "
            "refused with --fault"
        ),
    )
    parser.add_argument(
        "--count",
        type=int,
        default=DEFAULT_SCENARIO_COUNT,
        metavar="N",
        help="fuzz only: number of generated scenarios (default %(default)s)",
    )
    parser.add_argument("--threads", type=int, default=2,
                        help="the problem's x-axis value (default 2)")
    parser.add_argument("--ops", type=int, default=4,
                        help="total operation budget (default 4; keep tiny for dfs)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for the workload (and swarm probes)")
    parser.add_argument(
        "--schedules",
        type=int,
        default=None,
        metavar="N",
        help=(
            "dfs: max schedules to visit (default: unlimited, run to "
            "exhaustion); swarm: number of random schedules (default 200); "
            f"fuzz: schedules per scenario x mechanism (default {DEFAULT_SCHEDULES})"
        ),
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help=(
            "dfs: only branch on decisions shallower than N (needed for "
            "policies like 'baseline' whose schedule trees are infinite)"
        ),
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=DEFAULT_MAX_STEPS,
        metavar="N",
        help="per-run scheduling-step budget (default %(default)s)",
    )
    parser.add_argument(
        "--executor",
        default="serial",
        metavar="NAME",
        help=(
            "how swarm/fuzz probes are executed (see --list-executors; "
            "'process' shards them over a worker pool); dfs, with or without "
            "--dpor, is serial only"
        ),
    )
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker count for parallel executors")
    parser.add_argument(
        "--starvation-budget",
        type=int,
        default=None,
        metavar="N",
        help=(
            "liveness oracle: fail if a thread stays blocked for N consecutive "
            "scheduling decisions (recommended for swarm mode only; DFS "
            "schedules are deliberately unfair)"
        ),
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="also run the monitor's relay-invariance checking during each run",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="problem parameter (repeatable), e.g. --param capacity=1",
    )
    parser.add_argument(
        "--out",
        default="repros",
        metavar="DIR",
        help="directory for failure repro files (default: %(default)s)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="write raw failing schedules without greedy minimisation",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-execute a repro file bit-identically and report the verdict",
    )
    parser.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="PLAN",
        help=(
            "chaos: fault plan(s) to inject (repeatable; see --list-faults; "
            "default: every registered plan)"
        ),
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock safety net per run; when it fires the run is "
            "classified 'hang' with a parked-thread autopsy "
            "(default: the kernel's 600s)"
        ),
    )
    parser.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        metavar="STEPS",
        help=(
            "default wait_until timeout in scheduling steps; expiry "
            "classifies the run as 'timeout' (default: unbounded waits)"
        ),
    )
    parser.add_argument(
        "--no-self-heal",
        action="store_true",
        help="chaos: run without the monitor's self-healing recovery hook",
    )
    parser.add_argument(
        "--list-faults",
        action="store_true",
        help="list registered fault types and fault plans and exit",
    )
    parser.add_argument(
        "--list-schedulers",
        action="store_true",
        help="list the scheduler registry contents and exit",
    )
    parser.add_argument(
        "--list-problems",
        action="store_true",
        help="list the problem registry contents (incl. scenarios) and exit",
    )
    parser.add_argument(
        "--list-modes",
        action="store_true",
        help="list the exploration modes (incl. dfs + --dpor) and exit",
    )
    parser.add_argument(
        "--list-executors",
        action="store_true",
        help="list the executor registry contents and exit",
    )
    return parser


#: ``--list-modes`` output: mode name -> one-line description.
EXPLORATION_MODES = {
    "dfs": "bounded exhaustive depth-first search over scheduling decisions (serial)",
    "dfs --dpor": (
        "dfs with configuration merging and symmetry: identical violation set, "
        "exponentially fewer schedules (refused with --fault)"
    ),
    "swarm": "seeded random schedule sampling, shardable across processes",
    "fuzz": "swarm over seeded *generated* scenarios with derived oracles",
    "chaos": "fault-injection sweep under the recovery-or-classified oracle",
}


def _parse_params(raw: Optional[Sequence[str]]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for item in raw or ():
        key, separator, value = item.partition("=")
        if not separator or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {item!r}")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def _resolve_mechanisms(problem_name: str, raw: Optional[str]) -> List[str]:
    try:
        problem = get_problem(problem_name)
    except ValueError as error:
        # Unknown problem names are a usage error; the message already
        # lists every registered problem.
        raise SystemExit(str(error)) from None
    supported = problem.supported_mechanisms()
    if raw is None or raw == "all":
        return list(supported)
    names = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = [name for name in names if name not in supported]
    if unknown:
        raise SystemExit(
            f"unknown mechanism(s) {unknown} for problem {problem_name!r}; "
            f"supported: {', '.join(supported)}"
        )
    return names


def _resolve_executor(name: str, jobs: Optional[int]) -> str:
    """Validate --executor/--jobs up front, with the registry-listing UX of
    --mechanism/--scheduler, instead of a mid-exploration traceback."""
    if name not in available_executors():
        raise SystemExit(
            f"unknown executor {name!r}; "
            f"registered executors: {', '.join(available_executors())}"
        )
    if jobs is not None and jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {jobs}")
    return name


def _write_failures(
    report: ExplorationReport,
    out_dir: Path,
    shrink: bool,
) -> List[Path]:
    written: List[Path] = []
    for failure in report.failures:
        # Swarm probes re-seed the workload with the probe seed; shrink and
        # replay must run against that exact seed or the schedule diverges.
        task = report.task
        if failure.seed is not None:
            task = replace(task, seed=failure.seed)
        shrunk_from: Optional[int] = None
        if shrink:
            try:
                result = shrink_failure(
                    task, failure.prefix, failure.kind, message=failure.message
                )
            except ValueError:
                # Defensive: a prefix re-run that no longer fails (the trace
                # itself still replays); keep the raw failure in that case.
                result = None
            if result is not None:
                shrunk_from = len(failure.prefix)
                failure = ExplorationFailure(
                    kind=failure.kind,
                    message=result.outcome.message,
                    prefix=result.prefix,
                    trace=result.outcome.trace,
                    digest=result.outcome.digest,
                    seed=failure.seed,
                )
                print(f"  shrink: {result.describe()}")
        name = (
            f"{task.problem}_{task.mechanism}_"
            f"{failure.kind.replace(':', '-')}_{failure.digest[:12]}.json"
        )
        path = write_repro(
            out_dir / name, repro_payload(task, failure, report.mode, shrunk_from)
        )
        written.append(path)
        print(f"  repro written: {path}")
    return written


def _run_fuzz(args: argparse.Namespace, specs=None) -> int:
    out_dir = Path(args.out)
    mechanisms = None
    if args.mechanism is not None and args.mechanism != "all":
        from repro.core.signalling import available_policies

        mechanisms = [name.strip() for name in args.mechanism.split(",") if name.strip()]
        # Fuzzed scenarios run under signalling policies only (no explicit
        # twin exists); reject bad names up front with the same UX as
        # dfs/swarm instead of a mid-exploration traceback.
        unknown = [name for name in mechanisms if name not in available_policies()]
        if unknown:
            raise SystemExit(
                f"fuzz mode explores registered signalling policies; "
                f"unsupported mechanism(s) {unknown}; "
                f"registered policies: {', '.join(available_policies())}"
            )
    any_failures = False

    def on_scenario(result) -> None:
        nonlocal any_failures
        verdict = "clean" if result.ok else f"{result.failures_total} FAILING"
        print(
            f"fuzz seed {result.seed}: {result.spec.name} — "
            f"{result.schedules_visited} schedules, {verdict}",
            flush=True,
        )
        if result.ok:
            return
        any_failures = True
        for report in result.reports:
            if not report.ok:
                _write_failures(report, out_dir, shrink=not args.no_shrink)

    try:
        report = fuzz_scenarios(
            count=args.count,
            base_seed=args.seed,
            schedules=args.schedules if args.schedules is not None else DEFAULT_SCHEDULES,
            mechanisms=mechanisms,
            threads=args.threads,
            total_ops=args.ops,
            executor=args.executor,
            jobs=args.jobs,
            validate=args.validate,
            starvation_budget=args.starvation_budget,
            spec_dir=out_dir,
            specs=specs,
            problem_params=_parse_params(args.param),
            progress=on_scenario,
        )
    except ValueError as error:
        # Bad configuration (e.g. --param for a parameter no scenario
        # declares): a usage error, same UX as dfs/swarm.
        raise SystemExit(f"cannot fuzz: {error}") from None
    print()
    print(report.summary())
    return 1 if any_failures else 0


def _run_chaos(args: argparse.Namespace) -> int:
    problems = [
        name.strip()
        for name in (args.problem or "bounded_buffer").split(",")
        if name.strip()
    ]
    out_dir = Path(args.out)
    any_failures = False
    for problem in problems:
        mechanisms = [
            name
            for name in _resolve_mechanisms(problem, args.mechanism)
            # Fault scheduling is defined on the monitor's signalling
            # machinery; the hand-written explicit twin has none to degrade.
            if name != "explicit"
        ]
        try:
            report = chaos_sweep(
                problems=[problem],
                mechanisms=mechanisms,
                plans=args.fault,
                schedules_per_config=(
                    args.schedules
                    if args.schedules is not None
                    else DEFAULT_SCHEDULES_PER_CONFIG
                ),
                base_seed=args.seed,
                threads=args.threads,
                total_ops=args.ops,
                self_heal=not args.no_self_heal,
                wait_timeout=args.wait_timeout,
                run_timeout=args.run_timeout,
                max_steps=args.max_steps,
                problem_params=_parse_params(args.param),
                repro_dir=out_dir,
                shrink=not args.no_shrink,
            )
        except ValueError as error:
            # Unknown fault plan / bad problem parameter: a usage error; the
            # plan registry's message already lists every registered plan.
            raise SystemExit(f"cannot run chaos sweep: {error}") from None
        print(report.summary())
        for failure in report.failures:
            if failure.repro_path is not None:
                print(f"  repro written: {failure.repro_path}")
        print()
        if not report.ok:
            any_failures = True
    return 1 if any_failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_faults:
        from repro.faults import (
            available_fault_plans,
            available_faults,
            describe_fault,
            describe_fault_plan,
        )

        print("fault types:")
        width = max(len(name) for name in available_faults())
        for name in available_faults():
            print(f"  {name:{width}s}  {describe_fault(name)}")
        print("fault plans:")
        width = max(len(name) for name in available_fault_plans())
        for name in available_fault_plans():
            print(f"  {name:{width}s}  {describe_fault_plan(name)}")
        return 0
    if args.list_schedulers:
        width = max(len(name) for name in available_schedulers())
        for name in available_schedulers():
            print(f"{name:{width}s}  {describe_scheduler(name)}")
        return 0
    if args.list_problems:
        width = max(len(name) for name in available_problems())
        for name in available_problems():
            print(f"{name:{width}s}  {describe_problem(name)}")
        return 0
    if args.list_modes:
        width = max(len(name) for name in EXPLORATION_MODES)
        for name, description in EXPLORATION_MODES.items():
            print(f"{name:{width}s}  {description}")
        return 0
    if args.list_executors:
        width = max(len(name) for name in available_executors())
        for name in available_executors():
            print(f"{name:{width}s}  {describe_executor(name)}")
        return 0
    _resolve_executor(args.executor, args.jobs)
    if args.dpor and args.mode != "dfs":
        raise SystemExit("--dpor requires --mode dfs (see --list-modes)")
    if args.dpor and args.fault:
        raise SystemExit(
            "--dpor cannot be combined with --fault: fault injection "
            "suppresses notifications by event count, not by state, so equal "
            "configurations need not have equal futures; run plain dfs "
            "or --mode chaos for fault exploration"
        )
    if args.replay is not None:
        result = replay_repro(args.replay)
        print(result.describe())
        return 0 if result.reproduced else 1
    if args.mode == "dfs" and (args.executor != "serial" or (args.jobs or 1) > 1):
        raise SystemExit(
            "--mode dfs runs serially, with or without --dpor; "
            "--executor/--jobs shard swarm and fuzz only"
        )
    spec = None
    if args.scenario is not None:
        try:
            spec = load_scenario_file(args.scenario)
            register_scenario(spec, replace=True)
        except ScenarioError as error:
            raise SystemExit(str(error)) from None
        if args.problem is not None and args.problem != spec.name:
            raise SystemExit(
                f"--scenario registered {spec.name!r} but --problem asks for "
                f"{args.problem!r}; drop --problem or make them agree"
            )
        args.problem = spec.name
    if args.mode == "chaos":
        if spec is not None:
            raise SystemExit("--scenario is not supported with --mode chaos")
        return _run_chaos(args)
    if args.mode == "fuzz":
        # With --scenario, fuzz the loaded spec; otherwise fuzz generated ones.
        return _run_fuzz(args, specs=[spec] if spec is not None else None)
    if args.problem is None:
        raise SystemExit(
            "--problem is required (unless --scenario/--replay/--mode fuzz/"
            "--list-schedulers/--list-problems)"
        )

    params = _parse_params(args.param)
    mechanisms = _resolve_mechanisms(args.problem, args.mechanism)
    out_dir = Path(args.out)
    fault_plan = None
    if args.fault:
        if len(args.fault) > 1:
            raise SystemExit(
                "dfs/swarm explore one fault plan at a time; use --mode "
                "chaos to sweep several"
            )
        from repro.faults import create_fault_plan

        try:
            fault_plan = create_fault_plan(args.fault[0]).to_dict()
        except ValueError as error:
            raise SystemExit(str(error)) from None
    any_failures = False
    for mechanism in mechanisms:
        task = ExploreTask(
            problem=args.problem,
            mechanism=mechanism,
            threads=args.threads,
            total_ops=args.ops,
            seed=args.seed,
            validate=args.validate,
            max_steps=args.max_steps,
            starvation_budget=args.starvation_budget,
            problem_params=params,
            # A --scenario-loaded problem exists only in this process's
            # registry; carry the spec so pool workers (and repro replays)
            # are self-contained.
            scenario=spec.to_dict() if spec is not None else None,
            fault_plan=fault_plan,
            self_heal=fault_plan is not None and not args.no_self_heal,
            run_timeout=args.run_timeout,
            wait_timeout=args.wait_timeout,
        )
        try:
            if args.mode == "dfs" and args.dpor:
                report = explore_dpor(
                    task,
                    max_schedules=args.schedules,
                    max_depth=args.max_depth,
                )
            elif args.mode == "dfs":
                report = explore_dfs(
                    task,
                    max_schedules=args.schedules,
                    max_depth=args.max_depth,
                )
            else:
                report = explore_swarm(
                    task,
                    schedules=args.schedules if args.schedules is not None else 200,
                    base_seed=args.seed,
                    executor=args.executor,
                    jobs=args.jobs,
                )
        except ValueError as error:
            # Workload construction rejected the configuration (bad problem
            # parameter, invalid thread/op count, ...): a usage error, not a
            # finding — report it like any other bad CLI input.
            raise SystemExit(f"cannot explore {args.problem!r}: {error}") from None
        print(report.summary())
        if report.stats:
            print(
                "  reduction: "
                + ", ".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
            )
        if report.timings:
            # `oracle` is a sub-bucket of `run`; print it last so the first
            # three stages read as an (approximate) wall-clock partition.
            order = ("build", "run", "classify", "oracle")
            stages = sorted(
                report.timings.items(),
                key=lambda kv: order.index(kv[0]) if kv[0] in order else len(order),
            )
            print(
                "  stages: "
                + ", ".join(f"{stage}={seconds:.3f}s" for stage, seconds in stages)
            )
        if not report.ok:
            any_failures = True
            _write_failures(report, out_dir, shrink=not args.no_shrink)
        print()
    return 1 if any_failures else 0


if __name__ == "__main__":
    sys.exit(main())
