"""A fixed pure-Python loop that gauges the machine's momentary speed.

On a shared machine the same operation can take 1.6 times as long from
one minute to the next, because other tenants change the processor's
clock and caches.  The benchmark therefore times this loop
around every operation and rescales the operation's wall time by
``NOMINAL_S / yardstick time``: the result reads as seconds on a machine
where the loop takes ``NOMINAL_S``.  The loop allocates no objects the
garbage collector tracks, so the program's heap cannot slow it that way,
and it depends on nothing in ``pcsemi``, so no change to the program moves
it.
"""

from __future__ import annotations

import random
import time

WORDS = 1000
PARTNERS = 12
REPEATS = 3
# Median yardstick time on the 2-core reference machine (Python 3.11);
# fixed here so that reported times stay comparable between commits.
NOMINAL_S = 1.0e-3


class Yardstick:
    """Bitwise AND and popcount over fixed 200-bit integers.

    The loop runs in the interpreter on cache-resident objects, so it
    tracks the processor's momentary clock rather than memory traffic.
    Among the loops tried (integer arithmetic, a pointer-chasing walk over
    shuffled tuples, numpy cumulative sums), this one left the smallest
    run-to-run spread on all four workloads.
    """

    def __init__(self):
        rng = random.Random(0)
        self.words = [rng.getrandbits(200) for _ in range(WORDS)]

    def time(self) -> float:
        """Fastest of REPEATS timings of the loop, in seconds."""
        partners = self.words[:PARTNERS]
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            acc = 0
            for a in self.words:
                for b in partners:
                    acc += (a & b).bit_count()
            best = min(best, time.perf_counter() - start)
        return best


class Rescaler:
    """Pairs each timed interval with the yardstick just before and after it."""

    def __init__(self, stick: Yardstick):
        self.stick = stick
        self.before = stick.time()
        self.factors = []

    def scale(self) -> float:
        """Factor for the interval that just ended; starts the next pairing."""
        after = self.stick.time()
        factor = NOMINAL_S / ((self.before + after) / 2.0)
        self.before = after
        self.factors.append(factor)
        return factor
