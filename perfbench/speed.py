"""The host's speed, sampled while a pass runs.

The reference machine is a share of a busy host: the same pure-Python loop
runs up to 1.6 times slower in some stretches than in others, a stretch
lasts from seconds to minutes, and process CPU time slows with it.  Raw
times therefore spread by 15–35% from run to run whatever the run length.

``Probe`` times a fixed calibration kernel every ``INTERVAL_S`` from a
``SIGALRM`` handler, in the worker's own thread, while the operations run.
Each operation's time excludes the handler's time and is divided by the
host's slowness around it: the median kernel time of the samples in a window
around the operation over ``KERNEL_REF_S``, the kernel's time on the
reference machine in a fast stretch.  The result is the operation's time at
the reference speed.  The kernel is benchmark code, so it is the same on
every commit.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05  # between two samples
KERNEL_REF_S = 0.001  # one kernel call on the reference machine, fast stretch
WINDOW_S = 2 * INTERVAL_S  # samples this close to an operation describe it
SETUP_SAMPLES = 25  # back-to-back samples after a set-up

_TABLE = {i: i * i for i in range(256)}


def kernel() -> int:
    """Fixed integer, gcd and dict work, then fixed ``Fraction`` and
    tuple-keyed dict work, about half a millisecond each.

    The two halves slow by different amounts in a slow stretch, and their
    sum tracks the program's operations better than either alone.
    """
    x = 0x9E3779B97F4A7C15
    acc = 0
    table = _TABLE
    for i in range(1, 700):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc += math.gcd(x, 0x5DEECE66D5DEECE66D) + table[x & 255] + x % i
    sums: dict = {}
    total = Fraction(0)
    for i in range(1, 100):
        key = (i % 17, i % 13)
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i, i % 7 + 1)
        total += Fraction(1, i)
    return acc + total.denominator % 7


def sample() -> tuple[float, float]:
    """(start, seconds) of one kernel call.

    The garbage collector is off meanwhile, so that the kernel's short-lived
    objects never start a collection of the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t0, t1 - t0


class Probe:
    """Samples the kernel every ``INTERVAL_S`` until stopped."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def _tick(self, signum, frame):
        t0, dt = sample()
        self.starts.append(t0)
        self.seconds.append(dt)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def paused(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent in the handler."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(min(e, t1) - max(s, t0)
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def factor(self, t0: float, t1: float) -> float:
        """The host's slowness over [t0, t1] against the reference: the
        median kernel time of the samples near it over ``KERNEL_REF_S``."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return statistics.median(near) / KERNEL_REF_S


def setup_factor() -> float:
    """The host's slowness right now, from back-to-back samples."""
    return statistics.median(sample()[1] for _ in range(SETUP_SAMPLES)) / KERNEL_REF_S
