"""Machine-speed reference for the reported times.

The benchmark's machine is shared, and its CPU speed moves by up to half in
phases that last from seconds to tens of minutes. A raw time therefore
changes with the machine as much as with the program. Each measured time is
bracketed by a fixed pure-Python loop, timed just before and just after, and
reported at the nominal speed at which that loop takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / reference

where ``reference`` is the mean of the loop's median time before and after.
"""

from __future__ import annotations

import statistics
import time

# nominal time of one reference loop; reported seconds are seconds at this speed
REFERENCE_S = 0.008


def reference_loops(repeats: int = 7) -> list[float]:
    """Times of a fixed pure-Python loop: how fast the machine runs right now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return times


def at_reference_speed(measured: float, before: list[float], after: list[float]) -> float:
    reference = (statistics.median(before) + statistics.median(after)) / 2
    return measured * REFERENCE_S / reference
