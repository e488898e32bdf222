"""A clock that reads seconds at a fixed reference speed of the host.

The benchmark's host is a shared virtual machine whose vCPUs switch, about
once a second, between a fast and a slow state (the same code takes 1x or
1.75x), so one child's wall time depends on how long the host happened to
spend in each state.  This clock takes that out: every ``INTERVAL_S`` of wall
time a signal handler times a fixed pure-Python probe on the same vCPU,
inside the measured process, and the wall time since the last probe is
scaled by ``PROBE_REF_S / probe time``.  Program work measured on this clock
does not depend on the host's state; the probes' own time is left out.

The child runs the clock around the calls it times; ``host_scale`` reads
the speed once, which the runner and the child use to scale the child's
start-up.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

INTERVAL_S = 0.025
RECENT = 5        # the speed is read from the median of this many probes
WARM = 20         # untimed probes first, to warm their code and objects
# The probe's duration at the reference speed: about its median on the
# 2-vCPU KVM guest the baseline in README.md was measured on, in its slow
# state, so that readings there are close to wall time.
PROBE_REF_S = 300e-6


# A small rational matrix, eliminated by the probe.
MATRIX = [[Fraction(1, i + j + 1) + (7 if i == j else 0) for j in range(4)]
          for i in range(4)]


def probe() -> int:
    """A fixed mix of what parafock spends its time on: small-int loops,
    dicts keyed by tuples, big ints, and Fraction row operations as in a
    dense rational solve.  Either half alone tracks one workload well and
    another poorly; together they track all three."""
    d: dict = {}
    f = Fraction(0)
    for i in range(1, 16):
        k = (i % 5, i % 3)
        d[k] = d.get(k, 0) + (i << 70) * (i + 3)
        f += Fraction(i % 7 + 1, i + 1)
    s = 0
    for i in range(200):
        s += i * i % 7
    a = [row[:] for row in MATRIX]
    for c in range(len(a)):
        for r in range(c + 1, len(a)):
            q = a[r][c] / a[c][c]
            a[r] = [x - q * y for x, y in zip(a[r], a[c])]
    return s + len(d) + f.numerator + a[-1][-1].denominator


def timed_probe() -> tuple[float, float]:
    """Start and end of one probe.  The cyclic collector is held off while it
    runs: a collection the probe's allocations set off would cost in
    proportion to the heap the program has built, and the probe would read a
    slower host when the program only holds more objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe()
        return t0, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


def host_scale() -> float:
    """Reference seconds per wall second now: from the median of a few
    probes, after warming the probe up.  Scales a short interval next to it,
    such as a child's start-up."""
    for _ in range(WARM):
        probe()
    return PROBE_REF_S / statistics.median(
        t1 - t0 for t0, t1 in (timed_probe() for _ in range(RECENT)))


class SteadyClock:
    """``now()`` is in reference seconds; it advances only while running."""

    def __init__(self):
        self.total = 0.0      # reference seconds up to ``mark``
        self.mark = 0.0       # perf_counter at the end of the last probe
        self.scale = 1.0      # reference seconds per wall second, recently
        self.recent = deque(maxlen=RECENT)   # durations of the last probes
        self.probes = 0
        self.probe_s = 0.0    # wall time spent in probes

    def _probe(self) -> tuple[float, float]:
        """Time one probe; return its start and end and update ``scale``.
        A median of the last few is robust to a probe that was interrupted,
        and still follows the host's state, which lasts about a second."""
        t0, t1 = timed_probe()
        self.probes += 1
        self.probe_s += t1 - t0
        self.recent.append(t1 - t0)
        self.scale = PROBE_REF_S / statistics.median(self.recent)
        return t0, t1

    def _tick(self, signum=None, frame=None):
        before = self.scale
        t0, t1 = self._probe()
        # the speed over the interval: the mean of the readings at its ends
        self.total += (t0 - self.mark) * (before + self.scale) / 2
        self.mark = t1

    def start(self) -> float:
        """Read the host's speed, start running, return that reading."""
        for _ in range(WARM):
            probe()
        for _ in range(RECENT):
            _, self.mark = self._probe()
        self.probes, self.probe_s = 0, 0.0
        scale = self.scale
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return scale

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def now(self) -> float:
        return self.total + (time.perf_counter() - self.mark) * self.scale
