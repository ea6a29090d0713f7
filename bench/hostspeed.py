"""Host speed index for timing on a shared machine.

On a host shared with other tenants the same pass can take 30-50% longer for
minutes at a time, and CPU time slows with wall time (the vCPU runs, only
slower), so neither clock is steady.  A fixed scalar-arithmetic probe,
timed twenty times a second from a SIGALRM handler while a pass runs, tracks
that speed: dividing a pass's seconds by its mean probe time removed most of
the pass-to-pass spread (coefficient of variation 13% -> 3% on hinf_sweep,
6% -> 1% on sac_train, over 100 s each on a shared 2-core x86-64 VM).  The
benchmark scales each sub-unit of a pass by the probes taken while it ran.

Python runs the handler between bytecodes of the main thread, so a probe
never splits a native call; it costs about 0.1% of the pass.
"""

from __future__ import annotations

import math
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.05
# mean probe seconds on a shared 2-core x86-64 VM in its fast phase: a pass timed at
# this probe speed is reported unscaled
REFERENCE_PROBE_S = 40e-6
# A probe the scheduler preempts can read milliseconds and would dominate the
# mean of its window, though the pass lost only those milliseconds; probes
# are clipped here, above the 2.6x slowest unpreempted probe seen.
PROBE_CAP_S = 4 * REFERENCE_PROBE_S


def probe() -> float:
    """Seconds for a fixed loop of Euler steps on a scalar pendulum."""
    t0 = perf_counter()
    x, v = 0.1, 0.0
    for _ in range(300):
        v += 0.02 * (9.81 * math.sin(x) - 0.5 * v)
        x += 0.02 * v
    return perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.times = []  # perf_counter() at the end of each probe
        self.samples = []  # probe seconds

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())
        self.times.append(perf_counter())

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end (perf_counter) at the reference host speed.

        Uses the clipped mean of the probes taken in that interval, or of all
        probes when the interval is too short to hold one.
        """
        window = self.samples[bisect_left(self.times, start):bisect_right(self.times, end)]
        window = window or self.samples
        if not window:
            return end - start
        mean = statistics.fmean(min(p, PROBE_CAP_S) for p in window)
        return (end - start) * REFERENCE_PROBE_S / mean
