"""Host-speed calibration: a fixed reference loop timed beside the workload.

The shared host this benchmark runs on changes speed by tens of per cent
within seconds and by up to about 2x between half hours, so raw host times
of one program drift between runs far more than any change worth
measuring.  A fixed pure-Python loop, timed right before and after every
round (and, for long rounds, inside them), drifts with the round; scaling
a round's host times by ``REFERENCE_NOMINAL_S / mean(reference samples)``
reports them as they would read on a host where the loop takes
``REFERENCE_NOMINAL_S``.  The mean, not the median, because a round's
time is a sum over the whole round, slow stretches included.  The loop is
part of the benchmark, not of the program, so a change to the program
cannot move it.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

REFERENCE_ITERATIONS = 100_000
#: Reference-loop samples in the block taken before and after every round.
REFERENCE_SAMPLES = 5
#: Reference-loop time of the host the calibrated metrics describe.
REFERENCE_NOMINAL_S = 0.010
#: Host seconds between reference samples taken inside a long round.
REFERENCE_INTERVAL_S = 0.25


def reference_samples(count: int = REFERENCE_SAMPLES) -> List[float]:
    """Times (seconds) of *count* runs of a fixed pure-Python loop."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        total = 0
        for index in range(REFERENCE_ITERATIONS):
            total += index * index % 7
        times.append(time.perf_counter() - started)
    return times


def speed_of(samples: Sequence[float]) -> float:
    """Factor that scales a duration measured beside *samples* to the
    nominal host (below 1 on a host slower than nominal)."""
    return REFERENCE_NOMINAL_S / statistics.fmean(samples)
