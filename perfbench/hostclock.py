"""Host-speed calibration: time at the reference host speed.

The benchmark host is a shared virtual machine whose speed drifts by
±30 % over seconds and stays slow for whole 20-second runs, so raw wall
time of identical work varies more between runs than any change worth
measuring.  The benchmark therefore interleaves a fixed calibration
kernel (pure-Python arithmetic and dict stores plus small NumPy array
updates, the mix the simulator's hot loops run) with the ops, and
reports every time scaled by ``REFERENCE_S / kernel time`` around it:
host time as it would read while the host runs at the speed where the
kernel takes ``REFERENCE_S``.  The kernel is benchmark code, so a change
to the simulator moves the scaled times exactly as it moves raw time.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Calibration kernel duration that defines the reference speed: its
#: fastest time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCE_S = 75e-6

_ARRAY = np.arange(256, dtype=float)


def _kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(400):
        acc += (i * 1.000001) % 7.0
        table[i & 31] = acc
    x = _ARRAY
    for _ in range(20):
        x = x * 1.0000001 + 0.5
    return acc + float(x[0])


def kernel_time(reps: int = 3) -> float:
    """Fastest of ``reps`` back-to-back kernel runs, in seconds."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class HostClock:
    """Kernel-time samples taken between ops, at most every ``period``
    seconds, and the scale factor they give any interval."""

    def __init__(self, period: float = 0.02) -> None:
        self.period = period
        self.times: list[float] = []
        self.values: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.values.append(kernel_time())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.period:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean kernel time of the samples from
        the last one before ``start`` to the first one after ``end``."""
        lo = max(0, bisect.bisect_right(self.times, start) - 1)
        hi = bisect.bisect_left(self.times, end)
        return REFERENCE_S / statistics.fmean(self.values[lo : hi + 1])

    def scaled(self, start: float, end: float) -> float:
        """Duration of [start, end] at the reference speed: each stretch
        between two samples at the mean speed of its end samples, the
        stretches before the first and after the last sample at that
        sample's speed."""
        inner = self.times[
            bisect.bisect_right(self.times, start) : bisect.bisect_left(
                self.times, end
            )
        ]
        points = [start, *inner, end]
        return sum((b - a) * self.scale(a, b) for a, b in zip(points, points[1:]))

    def overall(self) -> float:
        """Scale factor for everything this clock has seen."""
        return REFERENCE_S / statistics.median(self.values)
