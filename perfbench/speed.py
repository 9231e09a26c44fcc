"""Times at the machine's reference speed.

The benchmark shares a few cores of a host with work it cannot see. The
speed of this process drifts with that work, by a quarter within tens
of seconds and by more over minutes, while the guest reports no steal
time. A fixed pure-Python loop drifts with it. Every measured
time is therefore taken beside timings of that loop and scaled by
REFERENCE_S over the loop's time: the time the work would have taken had
the loop taken REFERENCE_S. Both the scaled and the raw times are
reported.

The loop has two halves, because the program slows more than plain
arithmetic does when the host is busy:
- int arithmetic, which stays in the core's first-level cache;
- reads of floats in a fixed shuffled order from a list larger than the
  core's 2 MiB second-level cache, so that it slows, like the program,
  when other work takes the shared cache.
Neither half allocates an object that the garbage collector tracks, so
the program's heap does not change the loop's speed. The list adds about
5 MB to the process's resident memory. Work done in a child process is
scaled by the arithmetic half alone: after a child has run, the list is
out of every cache, and the walk then measures memory latency, which
swings far more than the child's own time does.
"""

from __future__ import annotations

import random
import statistics
import time

ARITHMETIC = 30_000
_rng = random.Random(1)
DATA = [_rng.random() for _ in range(100_000)]
ORDER = _rng.sample(range(len(DATA)), 12_500)
# The loop's time, and its arithmetic half's, on a quiet 2-vCPU machine;
# scaled times read as if they took this long.
REFERENCE_S = 0.003
ARITHMETIC_REFERENCE_S = 0.0013


def arithmetic_s() -> float:
    start = time.perf_counter()
    total = 0
    for k in range(ARITHMETIC):
        total += k * k % 7
    return time.perf_counter() - start


def loop_s() -> float:
    start = time.perf_counter()
    arithmetic_s()
    data, acc = DATA, 0.0
    for i in ORDER:
        acc += data[i]
    return time.perf_counter() - start


class Clock:
    """The loop's timings of one run. Call ``scaled`` or ``tick`` right
    after each piece of measured work, with nothing else between."""

    def __init__(self):
        self.loops = [loop_s()]
        self.ticks = []

    def scaled(self, seconds: float) -> float:
        """Work done in this process, scaled by the loop timed right
        before and right after it, so that drift within a run is
        followed."""
        self.loops.append(loop_s())
        return seconds * REFERENCE_S * 2.0 / (self.loops[-2] + self.loops[-1])

    def tick(self) -> None:
        """A timing of the arithmetic half after work done in a child
        process."""
        self.ticks.append(arithmetic_s())

    def median_scaled(self, seconds: float) -> float:
        """Work done in a child process, scaled by the run's median tick.
        A timing right after a child exits is disturbed by the exit, so
        one differs from the next by more than in process; the median
        keeps that noise out of each sample."""
        return seconds * ARITHMETIC_REFERENCE_S / statistics.median(self.ticks)
