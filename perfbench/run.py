"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload saturation-sim --seed 1 --seconds 20 --trace 0

The process pins itself to one CPU, builds the workload's inputs from
``--seed``, runs one untimed warm-up round and then timed rounds for about
``--seconds`` seconds, checking every round's outputs.  A fixed
pure-Python reference loop is timed before and after every round, and the
round's host times are scaled to a host on which that loop takes
``REFERENCE_NOMINAL_S`` (see :mod:`calibration`).  Lines before the last
are diagnostics (pinned CPU, per-round raw times and host speed, sample
counts, uncalibrated medians, exact counts, tracing overhead); the last
line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced rounds, reports the per-layer metrics from the traced
ones, and writes the recorded spans under ``perfbench/out/``.  Exact
simulated counts are compared across rounds and, through a file under
``perfbench/out/`` keyed by seed and source digest, across runs; any
difference fails the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from calibration import REFERENCE_NOMINAL_S, reference_samples, speed_of
from tracing import GcWatch, SpanStore

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END: Dict[str, str] = {
    "ops_per_s": "1/s",
    "modelled_ops_per_s": "1/s",
    "wakeup_p50_ms": "ms",
    "verdict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

def pin_to_one_cpu() -> int:
    """Pin this process (and the threads it starts later) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, as the service driver computes it."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def code_digest() -> str:
    """Digest of the program and benchmark sources the exact counts belong to."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_exact(workload: str, seed: int, exacts: List[dict]) -> Optional[str]:
    """Exact counts must repeat across rounds and across runs of one seed."""
    first = exacts[0]
    for other in exacts[1:]:
        if other != first:
            return f"exact counts differ between rounds: {first} != {other}"
    path = OUT / f"exact-{workload}-seed{seed}-{code_digest()}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        if stored != first:
            return f"exact counts differ from an earlier run ({path.name}): {stored} != {first}"
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first, sort_keys=True))
    return None


def run_rounds(
    workload, modes: Tuple[str, ...], seconds: float, store, previous: List[float]
) -> list:
    """Timed rounds cycling through *modes* until the next would overrun.

    Each round is followed by a block of reference samples; its host speed
    comes from the blocks on both sides (*previous* is the one before the
    first round) and any samples taken inside it.
    """
    deadline = time.perf_counter() + seconds
    rounds = []
    durations: List[float] = []
    while len(rounds) < workload.min_rounds or (
        time.perf_counter() + statistics.median(durations) <= deadline
    ):
        round_id = len(rounds)
        mode = modes[round_id % len(modes)]
        gc.collect()
        started = time.perf_counter()
        watch = None
        if mode == "traced":
            store.round_id = round_id
            with GcWatch() as watch:
                result = workload.run_round(mode, store)
        else:
            result = workload.run_round(mode, None)
        block = reference_samples()
        result.speed = speed_of(previous + result.reference + block)
        previous = block
        durations.append(time.perf_counter() - started)
        rounds.append((mode, round_id, result, watch))
        line = f"round {round_id} {mode}: speed {result.speed:.4f}, verdict {result.verdict_s:.4f} s"
        if result.error is None:
            line += f", {result.ops / result.timed_s:.1f} ops/s"
            if result.samples:
                line += (
                    f", p50 {percentile(result.samples, 0.5) * 1e3:.4f} ms"
                    f", p99 {percentile(result.samples, 0.99) * 1e3:.4f} ms"
                    f" (n={len(result.samples)})"
                )
        print(line)
    return rounds


def pooled_latency_ms(rounds: list) -> Tuple[float, float]:
    """Calibrated p50 and p99 (ms) of the latency samples of every untraced
    round, pooled."""
    samples = [
        s * r.speed
        for mode, _, r, _ in rounds
        if mode != "traced" and r.error is None
        for s in r.samples
    ]
    p50, p99 = percentile(samples, 0.50) * 1e3, percentile(samples, 0.99) * 1e3
    print(f"wakeup p50 {p50:.4f} ms, p99 {p99:.4f} ms (n={len(samples)} pooled, calibrated)")
    return p50, p99


def end_to_end(rounds: list, setups: List[Tuple[float, float]]) -> Dict[str, float]:
    """End-to-end metrics: host times calibrated round by round, then the
    median over plain rounds (latency: over the samples of every untraced
    round pooled).  *setups* holds (seconds, speed) pairs."""
    plain = [r for mode, _, r, _ in rounds if mode == "plain" and r.error is None]
    median = statistics.median
    print(
        f"uncalibrated medians: ops_per_s {median(r.ops / r.timed_s for r in plain):.6g}, "
        f"verdict_s {median(r.verdict_s for r in plain):.6g}, "
        f"setup_s {median(seconds for seconds, _ in setups):.6g}; "
        f"median speed {median(r.speed for r in plain):.4f} "
        f"(reference loop nominal {REFERENCE_NOMINAL_S * 1e3:.1f} ms)"
    )
    return {
        "ops_per_s": median(r.ops / (r.timed_s * r.speed) for r in plain),
        "modelled_ops_per_s": plain[0].exact["modelled_ops_per_s"],
        "wakeup_p50_ms": pooled_latency_ms(rounds)[0],
        "verdict_s": median(r.verdict_s * r.speed for r in plain),
        "setup_s": median(seconds * speed for seconds, speed in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, rounds: list, store) -> Dict[str, float]:
    from workloads import LAYER_METRICS, monitor_layers

    per_round: List[Dict[str, float]] = []
    for mode, round_id, rnd, watch in rounds:
        if mode != "traced" or rnd.error is not None:
            continue
        layers = dict.fromkeys(LAYER_METRICS, 0.0)
        layers.update(monitor_layers(rnd.stats, rnd.ops, workload.uses_kernel))
        layers.update(rnd.layers)
        layers["relay.busy_s"] = store.self_time(round_id, ["relay"])
        layers.update(workload.traced_layers(store, round_id, rnd))
        layers["gc.pause_s"] = watch.pause_s
        layers["gc.gen2_collections"] = watch.gen2_collections
        per_round.append(layers)
    metrics = {
        name: statistics.median(layers[name] for layers in per_round)
        for name in LAYER_METRICS
    }
    traced = statistics.median(
        r.verdict_s * r.speed for mode, _, r, _ in rounds if mode == "traced" and r.error is None
    )
    plain = statistics.median(
        r.verdict_s * r.speed for mode, _, r, _ in rounds if mode == "plain" and r.error is None
    )
    metrics["trace.overhead"] = traced / plain - 1.0
    metrics["wakeup.p99_ms"] = pooled_latency_ms(rounds)[1]
    print(
        f"tracing overhead: {metrics['trace.overhead']:+.1%} "
        f"(median calibrated traced round {traced:.4f} s vs plain {plain:.4f} s)"
    )
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import LAYER_METRICS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    cpus = sorted(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    print(f"pinned to CPU {cpu} of {cpus}")
    first_block = reference_samples()

    workload = WORKLOADS[args.workload](args.seed)
    setups = workload.prepare()
    block = reference_samples()
    warm = workload.warm_up()
    if warm.error is not None:
        print(f"warm-up round failed its output check:\n{warm.error}", file=sys.stderr)
        workload.close()
        return report(False, warm.ops, warm.ops, {})
    previous, block = block, reference_samples()
    if warm.setup_s is not None:
        setups.append((warm.setup_s, speed_of(previous + warm.reference + block)))

    store = SpanStore()
    modes = workload.traced_modes if args.trace else workload.untraced_modes
    try:
        rounds = run_rounds(workload, modes, args.seconds, store, block)
    finally:
        workload.close()
    setups += [(r.setup_s, r.speed) for _, _, r, _ in rounds if r.setup_s is not None]
    last_block = reference_samples()
    print(
        f"host drift: reference loop {statistics.median(first_block) * 1e3:.2f} ms at start, "
        f"{statistics.median(last_block) * 1e3:.2f} ms at end"
    )

    attempted = sum(r.ops for _, _, r, _ in rounds)
    failed = sum(r.ops for _, _, r, _ in rounds if r.error is not None)
    for _, round_id, r, _ in rounds:
        if r.error is not None:
            print(f"round {round_id} failed its output check:\n{r.error}", file=sys.stderr)
    exacts = [r.exact for _, _, r, _ in rounds if r.error is None]
    problem = check_exact(workload.name, args.seed, exacts) if exacts else "no round passed"
    if problem is not None:
        print(f"determinism check failed: {problem}", file=sys.stderr)
    else:
        print(f"exact counts (repeat for seed {args.seed}): {json.dumps(exacts[0], sort_keys=True)}")
    print(f"rounds: {len(rounds)} timed ({', '.join(sorted(set(modes)))}), 1 warm-up")

    correct = failed == 0 and problem is None
    metrics: Dict[str, dict] = {}
    if {mode for mode, _, r, _ in rounds if r.error is None} >= set(modes):
        if args.trace:
            values, units = per_layer(workload, rounds, store), LAYER_METRICS
            store.write(OUT / f"spans-{workload.name}-seed{args.seed}.json")
        else:
            values, units = end_to_end(rounds, setups), END_TO_END
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return report(correct, attempted, failed, metrics)


def report(correct: bool, attempted: int, failed: int, metrics: Dict[str, dict]) -> int:
    """Print the result line; the exit status is 0 only for a correct run."""
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
