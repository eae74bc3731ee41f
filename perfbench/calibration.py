"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the same code runs up to about 1.6x
slower for seconds to tens of seconds at a time. Process and thread CPU time
do not remove this: over 90 s of repeated 0.5 s reference runs, thread time
equalled wall time to 0.5% in every 5 s window while both ranged 186-293 ms
per run, and the guest's steal counter rose by a few jiffies at most, so the
CPU ran slower rather than the process waiting for it. A fixed kernel owned by the
benchmark tracks that speed: on the 2-core Xeon (2.0 GHz) VM the
benchmark was written on, the ratio of an op's time to the time of a kernel
run right next to it varied 2-4% across 15 s windows while the raw times
varied 28-30%. Kernel runs before and after a 10 s op do not track the
speed during it, so ``Calibrator.during()`` runs the kernel from a SIGALRM
handler every ``INTERVAL_S`` while an op runs, on the op's own thread, and
``clock()`` is a timer that leaves the handler's time out. Op times taken
with that clock are reported scaled to the speed at which the kernel takes
``REFERENCE_S``; the raw times are printed beside them. Set-up time is not
scaled: fresh processes took 0.9-1.2 s while a longer variant of the kernel
ranged 26-49 ms in the parent, and kernel runs just before and after each
process moved against it as often as with it. run.py times set-up against
a baseline process instead.

The kernel mixes what the program spends its time on: Python calls around
tiny numpy arrays (the control tick), and a batched covariance and
eigendecomposition (perception). It never calls the program, so a change to
the program cannot move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

import numpy as np

REFERENCE_S = 0.004  # kernel time on that VM when quiet
INTERVAL_S = 0.2
WINDOW_S = 0.5  # a sample is scaled by the kernel runs within this of it

_POINTS = np.random.default_rng(0).normal(size=(300, 40, 3))


def kernel() -> float:
    r = np.eye(3)
    v = np.ones(3)
    acc = 0.0
    for i in range(150):
        r = r @ np.eye(3)
        v = np.clip(v * 1.0000001, -2.0, 2.0)
        acc += float(np.concatenate([v, v]).sum())
        d = {"a": i, "b": acc}
        acc += d["a"] * 1e-9
    cov = np.einsum("nki,nkj->nij", _POINTS, _POINTS)
    vals, _ = np.linalg.eigh(cov)
    return acc + float(vals[0, 0])


class Calibrator:
    """Kernel samples taken while ops run, and a clock that excludes them."""

    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []  # clock() at each sample
        self._stolen = 0.0  # s spent in the handler so far
        kernel()  # first call pays numpy's lazy set-up; keep it out of the samples

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.stamps.append(t0 - self._stolen)
        # a collection of the program's heap must not be charged to the kernel
        enabled = gc.isenabled()
        gc.disable()
        t1 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t1)
        if enabled:
            gc.enable()
        self._stolen += perf_counter() - t0

    def clock(self) -> float:
        """perf_counter() minus the time spent sampling the kernel."""
        return perf_counter() - self._stolen

    def clock_ns(self) -> int:
        return perf_counter_ns() - int(self._stolen * 1e9)

    @contextmanager
    def during(self):
        """Sample the kernel on entry and every INTERVAL_S of wall time inside."""
        self._sample(None, None)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Factor that maps a clock() interval to time at the reference speed.

        Uses the kernel runs from WINDOW_S before the interval to WINDOW_S
        after it, or the nearest one when none falls there. The mean, not
        the median: a slowdown over an interval is the time average of the
        speed, and the runs are spread evenly in time.
        """
        near = [d for t, d in zip(self.stamps, self.samples) if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            nearest = min(range(len(self.stamps)), key=lambda i: abs(self.stamps[i] - start))
            near = [self.samples[nearest]]
        return REFERENCE_S / statistics.fmean(near)
