"""Reference clock: wall times scaled to the host's nominal speed.

On a shared host the same code can run at half speed for tens of seconds
while other tenants are busy.  `sample()` times a fixed loop of `Fraction`
and float work that calls no program code, with the garbage collector off
so that the size of the program's heap cannot change it.  It runs just
before and just after each op, outside the timed region.  A wall time t
measured between samples p1 and p2 is reported as
t * NOMINAL_S / mean(p1, p2), the time it would have taken with the loop at
its nominal duration.  A program change moves t but not p1 or p2.

The benchmark process pins itself to one CPU (`pin_to_one_cpu`), so that
the loop, the ops and any child an op starts share one CPU.
"""

from __future__ import annotations

import gc
import math
import os
from fractions import Fraction
from time import perf_counter

# median duration of sample() on the 2-vCPU Intel Xeon host (Python 3.11.7)
# the benchmark was written on, so that reference times read close to wall
# times there
NOMINAL_S = 1.9e-3


def sample() -> float:
    """Seconds one pass of the reference loop takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(1, i % 97 + 1)
        x = [1.0 + 0.01 * i for i in range(8)]
        for _ in range(60):
            logs = [math.log(v) for v in x]
            x = [v * math.exp(0.1 - 0.1 * v + 0.001 * math.fsum(logs))
                 for v in x]
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(wall_s: float, before: float, after: float) -> float:
    """`wall_s` in reference seconds, from the samples around it."""
    return wall_s * NOMINAL_S * 2 / (before + after)


def pin_to_one_cpu() -> None:
    """Restrict this process, and the children it starts, to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
