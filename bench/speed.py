"""Machine-speed reference for the timed phases.

The machines this benchmark runs on change speed by up to 50% over
stretches of seconds to minutes, which process CPU time shows as well as
wall time. A timed phase therefore runs a fixed reference kernel every
``interval_s`` seconds, between calls of the program, and reports each
measured stretch of time scaled by the speed the kernel saw around it, as
if the kernel had taken ``REFERENCE_MS``. Time spent in the kernel is
excluded from every measured duration.
"""

import bisect
import statistics
import time

import numpy as np

# Median kernel time on the machine bench/README.md describes; the scale
# maps every run onto a machine where the kernel takes this long.
REFERENCE_MS = 7.0
# Samples on each side whose median sets the speed of a stretch.
SMOOTHING = 2


class SpeedProbe:
    """Samples the reference kernel at most once per ``interval_s``."""

    def __init__(self, interval_s=0.2):
        rng = np.random.default_rng(0)
        self._a = rng.random((256, 75))
        self._b = rng.random((75, 16))
        self._z = rng.random(20000)
        self.interval_s = interval_s
        self.spent = 0.0           # seconds spent sampling, kernel included
        self._starts = []          # sample start times
        self._ends = []            # sample end times
        self._kernel_s = []        # kernel seconds of each sample
        self._scales = None        # smoothed scale per sample, built on use
        self._next = 0.0

    def kernel(self):
        """A conv-sized matrix product, a stable magnitude argsort and an
        interpreter loop: the three kinds of work a round does."""
        start = time.perf_counter()
        for _ in range(3):
            (self._a @ self._b).sum()
            np.argsort(-np.abs(self._z), kind="stable")
        total = 0
        for i in range(3000):
            total += i
        return time.perf_counter() - start

    def maybe_sample(self):
        now = time.perf_counter()
        if now < self._next:
            return
        kernel_s = self.kernel()
        done = time.perf_counter()
        self._starts.append(now)
        self._ends.append(done)
        self._kernel_s.append(kernel_s)
        self._scales = None
        self.spent += done - now
        self._next = done + self.interval_s

    def kernel_ms(self):
        """Median kernel time over every sample, in milliseconds."""
        if not self._kernel_s:
            self.maybe_sample()
        return statistics.median(self._kernel_s) * 1e3

    def scale(self):
        """REFERENCE_MS over the median kernel time."""
        return REFERENCE_MS / self.kernel_ms()

    def _scale_after(self, k):
        if self._scales is None:
            ks = self._kernel_s
            self._scales = [
                REFERENCE_MS / (statistics.median(
                    ks[max(0, i - SMOOTHING):i + SMOOTHING + 1]) * 1e3)
                for i in range(len(ks))]
        return self._scales[max(k, 0)]

    def scaled(self, start, end):
        """Seconds of [start, end] outside the samples, each gap between
        two samples scaled by the speed measured around it."""
        if not self._kernel_s:
            self.maybe_sample()
        n = len(self._starts)
        total = 0.0
        # gap k runs from the end of sample k to the start of sample k + 1
        first = bisect.bisect_right(self._starts, start) - 1
        last = bisect.bisect_left(self._starts, end) - 1
        for k in range(first, last + 1):
            lo = max(start, self._ends[k]) if k >= 0 else start
            hi = min(end, self._starts[k + 1]) if k + 1 < n else end
            if hi > lo:
                total += (hi - lo) * self._scale_after(k)
        return total
