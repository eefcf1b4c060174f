"""Calibrated time: cancel the speed swings of a shared machine.

On a shared host the same code can run twice as slowly for tens of seconds
while other tenants load the cores, so raw times of runs made minutes apart
are not comparable.  The benchmark therefore runs a fixed loop of its own
(pure-Python float arithmetic, math calls and small numpy arrays, the mix
qtrig's evaluators make) next to the timed work, and scales each measured
time by REFERENCE_S / (duration of that loop around it).  Times are reported
in these calibrated seconds: what the work would take on a machine that
runs the loop in REFERENCE_S.  The loop uses no qtrig code, so a change to
qtrig moves calibrated times just as it moves raw ones.  Raw times are kept
in each result's details.
"""

import math
import time

import numpy as np

REFERENCE_S = 1.8e-3        # the loop's duration on the reference machine
EVERY_S = 0.025             # at most this much timed work between two samples


def loop_seconds():
    """Duration of one fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400):
        row = [1.0] * 12
        for k in range(1, 11):
            row[k] = row[k - 1] * 0.999 + math.sin(k * 0.1 + i)
        arr = np.array(row)
        acc += float(arr @ arr)
    return time.perf_counter() - t0


class Clock:
    """Calibration samples interleaved with timed work.

    Call tick() before each timed operation and sample() after the last
    one; an operation timed after sample index i is scaled by the mean of
    samples i and i + 1, the loops just before and just after it.
    """

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self):
        self.samples.append(loop_seconds())
        self._last = time.perf_counter()

    def tick(self):
        """Sample if the last sample is older than EVERY_S; return its index."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def factor(self, index):
        return factor(self.samples[index], self.samples[index + 1])


def factor(before, after):
    """Calibrated seconds per raw second, from the loops on either side."""
    return REFERENCE_S / (0.5 * (before + after))


def calibrated(run):
    """Calibrated seconds of run(), with a loop on each side."""
    before = loop_seconds()
    t0 = time.perf_counter()
    run()
    raw = time.perf_counter() - t0
    return raw * factor(before, loop_seconds())
