"""Timings normalized to a reference machine speed.

On a shared host the speed of pure-Python code drifts, by up to 1.8x within
seconds, with the load of other tenants.  Measured on such a host, the ratio
of a stage's time to the time of a fixed pure-Python kernel stays within a
few percent while the raw times swing by tens of percent.  So every measured
interval is paired with samples of that kernel: one right before, one every
SAMPLE_INTERVAL_S during the interval (from a SIGALRM handler) and one right
after.  Kernel time spent inside the interval is subtracted from it, and the
rest is scaled by REF_KERNEL_S / mean(kernel samples).  The mean, not the
median, because the interval's length is the sum of its pieces, each slowed
by the speed of its moment.  The result is in seconds on a machine whose
speed makes the kernel take REF_KERNEL_S (about a 2.1 GHz x86-64 core running
CPython 3.11 with no other load).

The kernel does integer arithmetic, tuple allocation and dict updates, the
instruction mix of capacore's hot loops, and never calls capacore, so no
change to the package can move it.  The garbage collector is off while it
runs, so that its time does not depend on the heap the measured code built.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager

REF_KERNEL_S = 0.001
SAMPLE_INTERVAL_S = 0.025


def kernel(n: int = 3000) -> int:
    counts: dict = {}
    get = counts.get
    x = 12345
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x >> 21, (x >> 11) & 1023)
        counts[key] = get(key, 0) + 1
    return len(counts)


class Interval:
    raw_s = 0.0      # interval length minus the kernel samples inside it
    factor = 1.0     # REF_KERNEL_S / mean kernel time

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


class SpeedClock:
    """Measures intervals; ``sample_inside=False`` samples only at the ends."""

    def __init__(self, sample_inside: bool = True):
        self.sample_inside = sample_inside
        self.spent = 0.0          # kernel seconds inside the open interval
        self._samples: list = []  # kernel times of the last interval
        self._open = False
        if sample_inside:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self._samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        if self._open:
            self.spent += self._sample()

    @contextmanager
    def interval(self):
        iv = Interval()
        self._samples = []
        self.spent = 0.0
        self._sample()
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._open = True
        t0 = time.perf_counter()
        try:
            yield iv
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self._open = False
            iv.raw_s = time.perf_counter() - t0 - self.spent
            self._sample()
            iv.factor = REF_KERNEL_S * len(self._samples) / sum(self._samples)

