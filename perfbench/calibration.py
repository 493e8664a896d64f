"""Rescale host time to a fixed reference speed.

The benchmark shares its host with other work, which slows every
measured second by a factor that drifts over tens of seconds.  A fixed
pure-Python/NumPy probe, run between the timed phases of each unit,
slows by about the same factor.  Every reported time is multiplied by
``REFERENCE_S / median(probe times)`` over the run: seconds on a host
where the probe takes exactly ``REFERENCE_S``.  The probe never calls
the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Probe time on the reference host (a 2-vCPU Intel Xeon VM, Python 3.11,
#: NumPy 2.4); calibrated seconds are seconds on that host.
REFERENCE_S = 0.05


def _probe_work() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    counts = {}
    for i in range(60_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    words = sorted(str(i) for i in range(30_000))
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(20):
        values = np.sqrt(values * values + 1.0)
    return total + len(counts) + len(words) + int(values[-1])


class Calibration:
    """Probe times collected over one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Multiply a host time by this to get calibrated seconds."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.median(self.samples)
