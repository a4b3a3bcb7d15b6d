"""Host-speed calibration: a fixed pure-Python loop timed next to each measurement.

The benchmark is meant for small shared virtual machines, whose speed
drifts by a third or more within a minute, for every process at once.
So each time the benchmark reports is scaled to a reference speed:

    reported = measured * REFERENCE_MS / calibration_ms

where `calibration_ms` is what `calibrate()` took next to the
measurement. The loop uses no part of prefarg and allocates no tracked
objects (so it never triggers the garbage collector). A change to the
program therefore moves a reported time exactly as it moves the measured
one, while a slow spell of the host moves both the measurement and the
calibration. The measured (raw) times are printed beside the reported ones.
"""

from __future__ import annotations

import time

# What calibrate() returns on an unloaded 2-vCPU x86-64 virtual machine
# with Python 3.11, so that reported times stay close to measured ones there.
REFERENCE_MS = 1.5

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}


def calibrate(repeats: int = 3) -> float:
    """Milliseconds of the fastest of `repeats` runs of a fixed loop."""
    best = float("inf")
    table = _TABLE
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += table[i & 255] ^ i
        best = min(best, time.perf_counter() - start)
    return best * 1000
