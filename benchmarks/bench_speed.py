"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts:
the same 60-epoch training run took 8.6 s in one minute and 10.9 s in the
next on an idle 2-vCPU VM, and a whole run cannot outlast the drift.
So while the untraced run measures, a ``Speedometer`` times a fixed
reference kernel every TICK_PERIOD_S from a SIGALRM handler on the same
thread, and every interval the benchmark reports is converted to seconds
at a fixed reference speed:

    seconds = (wall - reference ticks inside) * (REF_TICK_S / median tick) ** ELASTICITY

where the median is over the ticks around the interval. The kernel mixes
what the program spends its time on (small BLAS products, exp/log1p
element-wise passes, Python bytecode); it is run once untimed and timed
on its second and third pass, so its data and code are warm and the
program's own cache footprint does not move it. A change to ltcmh moves
the reported seconds as it moves the wall time.

The host does not slow all code alike: over 20 runs of the two workloads
(10 each, on a 2-vCPU VM), log wall time against log median tick had a
slope of 0.75 for both, so ELASTICITY is 0.75; with 1.0 a slow minute
read faster than a quick one. On those runs it cut the spread
(interquartile range over median) of pipeline_s from 0.12 to 0.05 on
train_default and from 0.16 to 0.06 on retrieve_large.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

TICK_PERIOD_S = 0.05    # one reference tick per 50 ms of wall time
REF_TICK_S = 3.0e-4     # the reference speed: a tick's time on a quiet core
ELASTICITY = 0.75       # d log(program time) / d log(tick time), measured
PAD_S = 0.25            # ticks this close to an interval describe its speed
MIN_TICKS = 5           # take at least this many ticks, nearest first

_rng = np.random.default_rng(0)
_M = _rng.random((48, 48))
_V = _rng.normal(size=4096)


def reference_kernel():
    for _ in range(8):
        _M @ _M
    np.logaddexp(0.0, _V).sum()
    (1.0 / (1.0 + np.exp(-_V))).sum()
    s = 0
    for i in range(2000):
        s += i
    return s


class Speedometer:
    """Times the reference kernel on a timer while the workload runs.
    Use as a context manager around everything whose intervals are
    converted with ``seconds``."""

    def __init__(self):
        self.starts = []   # perf_counter at the start of each tick
        self.ticks = []    # the kernel's warm time in that tick
        self.costs = []    # wall time the whole tick took from the workload
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        clock = time.perf_counter
        t0 = clock()
        reference_kernel()
        best = float("inf")
        for _ in range(2):
            a = clock()
            reference_kernel()
            best = min(best, clock() - a)
        self.starts.append(t0)
        self.ticks.append(best)
        self.costs.append(clock() - t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def seconds(self, interval):
        """Seconds at the reference speed of the wall-clock interval
        ``(t0, t1)``, less the ticks that ran inside it."""
        t0, t1 = interval
        if not self.ticks:
            raise RuntimeError("speedometer: no reference ticks were recorded")
        lo = bisect.bisect_left(self.starts, t0 - PAD_S)
        hi = bisect.bisect_right(self.starts, t1 + PAD_S)
        while hi - lo < min(MIN_TICKS, len(self.ticks)):
            if lo > 0 and (hi == len(self.ticks)
                           or t0 - self.starts[lo - 1] < self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        inside = sum(cost for start, cost in zip(self.starts[lo:hi], self.costs[lo:hi])
                     if t0 <= start <= t1)
        tick = statistics.median(self.ticks[lo:hi])
        return (t1 - t0 - inside) * (REF_TICK_S / tick) ** ELASTICITY

    def median_tick(self):
        return statistics.median(self.ticks)
