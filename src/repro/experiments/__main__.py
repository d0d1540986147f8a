"""Command-line entry point for regenerating the paper's figures and tables.

Examples
--------
Run the quick version of every experiment and print the tables::

    python -m repro.experiments --scale quick

Run one figure at paper scale on the threading backend as well::

    python -m repro.experiments --only fig14 --scale full --also-wall-clock
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.core.signalling import describe_policy
from repro.experiments import EXPERIMENTS, get_experiment
from repro.harness.execution import available_executors, describe_executor
from repro.harness.report import format_series_table
from repro.harness.results import mechanism_label
from repro.harness.runner import ExperimentRunner
from repro.problems.base import all_mechanisms
from repro.runtime.registry import available_backends, describe_backend

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autosynch-experiments",
        description="Regenerate the AutoSynch paper's evaluation figures and tables.",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="ID",
        help="run only this experiment id (repeatable); default: all",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="FILE",
        help=(
            "run a sweep of a declarative scenario spec (JSON; repeatable). "
            "Replaces the default figure set unless --only is also given"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="quick = seconds-long sweep, full = paper-scale sweep",
    )
    parser.add_argument(
        "--also-wall-clock",
        action="store_true",
        help="additionally run each sweep on the threading backend and report wall time",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list available experiment ids and exit",
    )
    parser.add_argument(
        "--mechanisms",
        default=None,
        metavar="NAME[,NAME...]",
        help=(
            "override each experiment's mechanism comparison set; accepts "
            "'explicit' and any registered signalling policy "
            f"(currently: {', '.join(all_mechanisms())})"
        ),
    )
    parser.add_argument(
        "--list-mechanisms",
        action="store_true",
        help="list the signalling-policy registry contents and exit",
    )
    parser.add_argument(
        "--executor",
        choices=available_executors(),
        default=None,
        help=(
            "how each sweep's run cells are executed (default: each "
            "experiment's configured executor, normally 'serial'); "
            "'process' shards cells over a multiprocessing pool"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker count for parallel executors (default: the executor's "
            "own — one per core for 'process'); implies --executor process "
            "when no executor is given"
        ),
    )
    parser.add_argument(
        "--list-executors",
        action="store_true",
        help="list the executor registry contents and exit",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "execution backend for every sweep (default: each experiment's "
            "configured backend, normally 'simulation'); any name in the "
            "backend registry — see --list-backends"
        ),
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="list the backend registry contents and exit",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock safety net per run cell (simulation backend): a "
            "cell exceeding it fails with a hang verdict and parked-thread "
            "autopsy instead of wedging the sweep (default: the kernel's "
            "600s)"
        ),
    )
    parser.add_argument(
        "--cell-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "re-attempt a failing run cell up to N times with exponential "
            "backoff (default: fail fast); worker-process crashes are "
            "always resubmitted to a rebuilt pool, bounded separately"
        ),
    )
    parser.add_argument(
        "--check-shapes",
        action="store_true",
        help="evaluate each experiment's qualitative shape checks and report pass/fail",
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        metavar="DIR",
        help="additionally write each experiment's series to DIR/<id>.csv",
    )
    return parser


def _parse_mechanisms(raw: Optional[str]) -> Optional[List[str]]:
    """Split and validate a ``--mechanisms`` value against the registry."""
    if raw is None:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise SystemExit("--mechanisms requires at least one mechanism name")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise SystemExit(f"duplicate mechanism(s) in --mechanisms: {duplicates}")
    known = all_mechanisms()
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown mechanism(s) {unknown}; available: {', '.join(known)}"
        )
    return names


def _run_one(experiment, args: argparse.Namespace) -> bool:
    runner = ExperimentRunner(progress=lambda message: print(f"  .. {message}", flush=True))
    print(f"== {experiment.experiment_id}: {experiment.title} ==", flush=True)
    series = experiment.run(
        scale=args.scale,
        runner=runner,
        mechanisms=args.mechanism_names,
        executor=args.executor,
        jobs=args.jobs,
        run_timeout=args.run_timeout,
        cell_retries=args.cell_retries,
        backend=args.backend,
    )
    print(experiment.report(series))
    if args.csv_dir:
        from pathlib import Path

        from repro.harness.export import write_series_csv

        destination = Path(args.csv_dir) / f"{experiment.experiment_id}.csv"
        write_series_csv(series, destination)
        print(f"  (series written to {destination})")
    all_ok = True
    if args.check_shapes:
        if args.mechanism_names:
            # The shape checks encode claims about the paper's fixed
            # comparison set; with an overridden mechanism set they would
            # compare against missing series.
            print("  (shape checks skipped: --mechanisms overrides the comparison set)")
        else:
            for description, ok in experiment.check_shapes(series):
                status = "PASS" if ok else "FAIL"
                all_ok = all_ok and ok
                print(f"  [{status}] {description}")
    if args.also_wall_clock:
        config = experiment.quick_config if args.scale == "quick" else experiment.full_config
        config = experiment.configured(
            config,
            args.mechanism_names,
            args.executor,
            args.jobs,
            args.run_timeout,
            args.cell_retries,
            args.backend,
        )
        wall_config = replace(config, backend="threading")
        wall_series = runner.run(wall_config)
        print(format_series_table(wall_series, "wall_time",
                                  title=f"{experiment.experiment_id} — wall_time (threading backend)"))
    print()
    return all_ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_executors:
        width = max(len(name) for name in available_executors())
        for name in available_executors():
            print(f"{name:{width}s}  {describe_executor(name)}")
        return 0
    if args.list_backends:
        width = max(len(name) for name in available_backends())
        for name in available_backends():
            print(f"{name:{width}s}  {describe_backend(name)}")
        return 0
    if args.backend is not None and args.backend not in available_backends():
        raise SystemExit(
            f"unknown backend {args.backend!r}; "
            f"available: {', '.join(available_backends())}"
        )
    if args.jobs is not None and args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.cell_retries is not None and args.cell_retries < 0:
        raise SystemExit("--cell-retries must be >= 0")
    if args.run_timeout is not None and args.run_timeout <= 0:
        raise SystemExit("--run-timeout must be positive")
    if args.jobs is not None and args.executor is None:
        # --jobs without an executor would silently run serial (the serial
        # executor ignores the count); parallelism was clearly the intent.
        args.executor = "process"
    if args.list_mechanisms:
        width = max(len(name) for name in all_mechanisms())
        for name in all_mechanisms():
            if name == "explicit":
                label = mechanism_label(name)
            else:
                label = describe_policy(name)
            print(f"{name:{width}s}  {label}")
        return 0
    args.mechanism_names = _parse_mechanisms(args.mechanisms)
    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            experiment = EXPERIMENTS[experiment_id]
            print(f"{experiment_id:8s} {experiment.title} [{experiment.paper_reference}]")
        return 0
    to_run = []
    if args.scenario:
        from repro.experiments.scenario import scenario_experiment
        from repro.scenarios import ScenarioError, load_scenario_file

        for path in args.scenario:
            try:
                to_run.append(scenario_experiment(load_scenario_file(path)))
            except ScenarioError as error:
                raise SystemExit(str(error)) from None
    if args.only or not args.scenario:
        ids: List[str] = args.only if args.only else sorted(EXPERIMENTS)
        to_run.extend(get_experiment(experiment_id) for experiment_id in ids)
    ok = True
    for experiment in to_run:
        ok = _run_one(experiment, args) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
