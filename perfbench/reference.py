"""Pacing: measure job times at a fixed machine speed on a shared machine.

On a shared machine the same pass of a workload takes 25-45% longer from one
minute to the next: neighbours slow the processor and its caches, not the
program.  A ``Pacer`` samples that speed from inside the measuring process.
A SIGALRM timer interrupts the process every ``INTERVAL_S`` of wall time and
the handler runs a fixed reference kernel once, recording when it started
and ended.  A job's paced time is its wall time minus the handler's time,
divided by the kernel's slowdown around the job (its mean duration there
over ``NOMINAL_KERNEL_S``).

The kernel is a small copy of two things fdxlab spends its time on: numpy
calls on one-element arrays (an RK4-like update) and an interpreted loop
over a sphere-cap formula.  Their slowdowns track those of every workload to
within about 5% per job; a kernel that also updated an 800-cell array
tracked them three times worse, so it has none.  It never calls fdxlab (so
changes to the program cannot move the reference) and never calls scipy's
QUADPACK, which is not reentrant and may be running when the signal arrives.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02  # one sample per 20 ms of wall time; the kernel takes ~0.3 ms
# a typical mean duration of the kernel inside the handler on the machine the
# benchmark was defined on (2 shared vCPUs, Python 3.11, numpy 2.4); it only
# sets the scale of paced seconds, which must stay fixed from run to run
NOMINAL_KERNEL_S = 3.0e-4
MIN_SAMPLES = 15  # jobs shorter than this many intervals borrow their neighbours' samples


def monotonic() -> float:
    # CLOCK_MONOTONIC is shared by every process on the machine, so readings
    # taken in different processes can be compared
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cap(rho: float, d: float, sigma: float) -> float:
    c = (d * d + rho * rho - sigma * sigma) / (2.0 * d * rho)
    return 2.0 * rho * math.acos(min(1.0, max(-1.0, c)))


def reference_kernel() -> float:
    g = np.array([1.0])
    for _ in range(20):
        g = g + 1e-3 * (0.5 * np.power(np.maximum(g, 0.0), 0.5) + 0.3 * g)
    s = 0.0
    for i in range(120):
        s += _cap(0.5 + 0.005 * i, 0.7, 0.4)
    return s + float(g[0])


class Pacer:
    """SIGALRM sampler of the reference kernel's speed; a context manager."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = monotonic()
        reference_kernel()
        self.starts.append(t0)
        self.ends.append(monotonic())

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, start: float, end: float) -> float:
        """Paced seconds of the interval [start, end] of the monotonic clock."""
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        if len(starts) < 3:
            raise RuntimeError(f"only {len(starts)} pacing samples; measure for longer")
        lo, hi = np.searchsorted(starts, start), np.searchsorted(ends, end, side="right")
        inside = ends[lo:hi] - starts[lo:hi]
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(starts))
        # the mean, not the median: the job pays for the slow stretches too
        slowdown = float(np.mean(ends[lo:hi] - starts[lo:hi])) / NOMINAL_KERNEL_S
        return (end - start - float(inside.sum())) / slowdown
