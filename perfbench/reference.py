"""Timing at a reference speed, with a fixed pure-Python kernel that times
the host rather than gorquad.

On a shared host the speed available to one process changes by a factor
of two within minutes, far more than the changes the benchmark must
resolve.  So while a timed call runs, an interval timer interrupts it every
`INTERVAL_S` seconds to time one run of the kernel.  The call's own time
(its wall time less the kernel runs) is divided by the median kernel time
seen during the call and multiplied by `KERNEL_S`, the kernel's time on a
quiet host.  The result reads as the call's seconds on that quiet host.
The kernel imports nothing from gorquad, so a change to gorquad cannot
move it.
"""

from __future__ import annotations

import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median

# About the kernel's median time on an idle 2-core x86-64 host (CPython 3.11).
KERNEL_S = 0.001
INTERVAL_S = 0.05
# A call that is too short for this many timer samples gets extra kernel
# runs after it.
MIN_SAMPLES = 5
P = 32003


def _kernel() -> int:
    """A product of two sparse dict polynomials mod P, the kind of work
    gorquad spends its time on."""
    rng = random.Random(7)
    a = {tuple(rng.randrange(4) for _ in range(6)): rng.randrange(1, P)
         for _ in range(25)}
    b = {tuple(rng.randrange(4) for _ in range(6)): rng.randrange(1, P)
         for _ in range(25)}
    c = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            c[k] = (c.get(k, 0) + va * vb) % P
    return len(c)


def _timed_kernel() -> float:
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


@dataclass
class Lap:
    wall: float = 0.0       # the call's own seconds, kernel runs left out
    scaled: float = 0.0     # the same at the reference speed


class ReferenceClock:
    """Times calls by the wall clock and at the reference speed.  With
    `sampling` off, no timer runs and both times are the wall time."""

    def __init__(self, sampling: bool = True):
        self.sampling = sampling

    @contextmanager
    def lap(self):
        """Time the body of the `with` block; the yielded Lap is filled in
        when the block ends, also when it raises."""
        lap = Lap()
        samples = []
        previous = None
        if self.sampling:
            previous = signal.signal(
                signal.SIGALRM, lambda signum, frame: samples.append(_timed_kernel()))
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t = time.perf_counter()
        try:
            yield lap
        finally:
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t
            if self.sampling:
                signal.signal(signal.SIGALRM, previous)
                lap.wall = wall - sum(samples)
                while len(samples) < MIN_SAMPLES:
                    samples.append(_timed_kernel())
                lap.scaled = lap.wall * KERNEL_S / median(samples)
            else:
                lap.wall = lap.scaled = wall
