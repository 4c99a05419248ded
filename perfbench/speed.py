"""Machine-speed sampling, to report times at a fixed reference speed.

The benchmark was built on a virtual machine with 2 shared vCPUs whose
speed jumps by up to 2x, several times a minute, as neighbours come and go;
process CPU time does not see the jumps.  No run length averages that out.
So while a pass runs, a timer signal interrupts it every INTERVAL_S and times
a fixed kernel of interpreter work and small numpy calls (it calls nothing in
the library).  Each stretch of the pass between two samples is scaled by
REF_KERNEL_S over the kernel time measured at its ends, and the time spent in
the samples themselves is left out.  The sum reads as the pass time on the
reference machine at its uncontended speed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Median time of `kernel` on the reference machine (2 shared vCPUs,
# Python 3.11.7, numpy 2.4.6) when no neighbour slows it.
REF_KERNEL_S = 0.0013
INTERVAL_S = 0.05

_A = np.arange(32.0)


def kernel() -> float:
    """About 1.3 ms of work shaped like the library's: interpreter
    arithmetic and calls on small numpy arrays."""
    s = 0.0
    for i in range(8000):
        s += i * 0.5
    for _ in range(300):
        s += float(np.sum(_A**1.5))
    return s


def time_kernel() -> float:
    t = perf_counter()
    kernel()
    return perf_counter() - t


def calibrate(reps: int = 9) -> float:
    """Median kernel time: the machine's speed right now."""
    return statistics.median(time_kernel() for _ in range(reps))


class SpeedSampler:
    """Samples the machine's speed between `start()` and `stop()`.

    `before` and `after` are kernel times measured just outside that
    interval; `samples` holds (start, end, kernel time) of each sample.
    """

    def __init__(self):
        self.before = self.after = 0.0
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t = perf_counter()
        k = time_kernel()
        self.samples.append((t, perf_counter(), k))

    def start(self) -> None:
        self.before = calibrate()
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.after = calibrate()

    def reference_seconds(self, start: float, end: float) -> float:
        """Time the program spent in [start, end], samples left out, at the
        reference speed."""
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        points = [(start, start, self.before), *inside, (end, end, self.after)]
        total = 0.0
        for (_, done, k0), (began, _, k1) in zip(points, points[1:]):
            total += (began - done) * REF_KERNEL_S * 0.5 * (1.0 / k0 + 1.0 / k1)
        return total
