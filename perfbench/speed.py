"""A fixed reference loop that tracks how fast this machine runs Python right now.

On a shared host the speed of one core drifts by a quarter or more over tens
of seconds, depending on what the neighbours do. The drift is the same for
the reference loop and for an interpreter-bound pass of the CLI. So each
timing is taken between two samples of the loop and scaled to the loop's
reference time:

    corrected = measured * REFERENCE_S / mean(sample before, sample after)

The corrected figure is in seconds at the reference speed. The harness
prints the measured figure and the speed samples beside it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

LOOPS = 150_000
#: Median time of one loop on the 2-core Xeon VM (2.1 GHz) where the bounds
#: in BENCHMARK.json were set.
REFERENCE_S = 0.02
REPEATS = 3


def _step(total: float, x: float) -> float:
    return total * x + 1.0


def _loop() -> float:
    start = perf_counter()
    total = 0.0
    for _ in range(LOOPS):
        total = _step(total, 0.5)
    return perf_counter() - start


def sample() -> float:
    """Median time of a few runs of the reference loop, in seconds."""
    return statistics.median(_loop() for _ in range(REPEATS))


def corrected(measured: float, before: float, after: float) -> float:
    """``measured`` scaled to the reference speed, given the samples around it."""
    return measured * REFERENCE_S / ((before + after) / 2)
