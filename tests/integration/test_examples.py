"""Smoke tests: every example script runs end to end.

The examples are part of the public deliverable, so they are executed as
subprocesses exactly the way a user would run them (with small workloads to
keep the suite fast).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_examples_directory_contents():
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert {
        "quickstart.py",
        "warehouse_pipeline.py",
        "readers_writers_service.py",
        "traffic_intersection.py",
    } <= scripts


def test_quickstart():
    output = run_example("quickstart.py")
    assert "FIFO order preserved: True" in output
    assert "not a single signal/notify call" in output


def test_warehouse_pipeline_single_mechanism():
    output = run_example("warehouse_pipeline.py", "--orders", "40", "--mechanism", "autosynch")
    assert "orders fulfilled    : 40 / 40" in output
    assert "signal_alls=0" in output


def test_warehouse_pipeline_baseline_uses_signal_all():
    output = run_example("warehouse_pipeline.py", "--orders", "30", "--mechanism", "baseline")
    assert "orders fulfilled    : 30 / 30" in output
    assert "signal_alls=0" not in output


def test_readers_writers_service():
    output = run_example("readers_writers_service.py")
    assert "reads completed  : 240" in output
    assert "writes completed : 30" in output


#: ``--cars 2 --crossings 2`` at the default seed, as printed when the
#: example's plain-function bodies ran on OS threads of their own; the
#: simulation kernel now runs their coroutine twins and must print the same.
TRAFFIC_RUN = """\
seed=3  cars/direction=2  crossings/car=2
  north: 4 crossings
  east : 4 crossings
  south: 4 crossings
  west : 4 crossings
  total crossings : 16
  light phases    : 9
  context switches: 67
  signals sent    : 19
  predicate evals : 74
"""


def test_traffic_intersection_is_deterministic():
    output = run_example("traffic_intersection.py", "--cars", "2", "--crossings", "2")
    assert output == (
        f"first run:\n{TRAFFIC_RUN}\n"
        f"second run with the same seed (identical by construction):\n{TRAFFIC_RUN}\n"
    )
