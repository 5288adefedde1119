"""Host speed tracking for timing normalisation.

A shared 2-core virtual machine (Python 3.11, numpy 2.4) changed speed by up
to 1.6x between and within runs, over seconds to minutes, with no steal time
visible to the guest (the same deterministic work took 0.42 s to 0.72 s). A fixed
reference kernel that is part of the benchmark, never of the program, is
timed every SAMPLE_EVERY_S through a run; each timing is scaled by
REF_NOMINAL_S over the kernel's median time in a window around it, i.e.
reported at the speed the host has when the kernel takes REF_NOMINAL_S. The
kernel mixes what the program spends its time on: small numpy reductions
over a node array, scalar float loops in Python, and short-lived objects.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.004
SAMPLE_EVERY_S = 0.25
WINDOW_S = 0.5
_POINTS = np.random.default_rng(7).random((256, 3))


def _kernel() -> float:
    acc = 0.0
    log = []
    for i in range(96):
        d = _POINTS - _POINTS[i]
        j = int(np.argmin(np.einsum("ij,ij->i", d, d)[i + 1:])) + i + 1
        x, y, z = _POINTS[j]
        for k in range(24):
            t = (k + 1) / 24.0
            acc += math.sqrt((x * t) ** 2 + (y * t) ** 2 + (z * t) ** 2)
            log.append({"tick": k, "at": (x * t, y * t, z * t)})
    return acc + len(log)


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []  # perf_counter() after each sample
        self.kernel_s: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        """Best of three kernel runs, to drop scheduler hiccups."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        self._last = time.perf_counter()
        self.at.append(self._last)
        self.kernel_s.append(best)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float | None = None) -> float:
        """Factor converting a timing taken over [t0, t1] to the nominal speed."""
        t1 = t0 if t1 is None else t1
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:  # no sample in the window: take the nearest one
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            if lo + 1 < len(self.at) and abs(self.at[lo + 1] - t0) < abs(self.at[lo] - t0):
                lo += 1
            hi = lo + 1
        return REF_NOMINAL_S / statistics.median(self.kernel_s[lo:hi])
