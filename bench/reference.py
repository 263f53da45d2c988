"""Calibration of wall times against a fixed reference workload.

On a shared virtual machine the speed of the same Python code drifts by up
to 1.5x within minutes, as neighbours come and go. The benchmark therefore
times a small fixed workload of its own (a Lindley recursion over
pre-drawn lists and a few 10x10 matrix products, the two kinds of work the
program does) every ``EVERY`` seconds between ops. An op's calibrated time
is its wall time times ``REF_SECONDS`` over the median reference time
measured within ``WINDOW`` seconds of it: its wall time on a machine where
the reference takes exactly ``REF_SECONDS``. The reference never changes
between commits, so calibrated times of two commits compare like wall
times, without the drift.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_SECONDS = 0.002
EVERY = 0.1
WINDOW = 0.5


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._arrivals = (rng.random(20_000) < 0.30).tolist()
        self._services = (rng.random(20_000) < 0.35).tolist()
        self._matrix = rng.random((10, 10)) / 10.0
        self._vector = rng.random(10)
        self.times: list[float] = []        # when each sample started
        self.seconds: list[float] = []      # how long it took

    def _work(self) -> int:
        q = 0
        for a, s in zip(self._arrivals, self._services):
            q = (q - s if q > s else 0) + a
        v = self._vector
        for _ in range(200):
            v = v @ self._matrix
        return q

    def sample(self, force: bool = False) -> None:
        """Time the reference, unless one was timed less than EVERY ago."""
        start = time.perf_counter()
        if force or not self.times or start - self.times[-1] >= EVERY:
            self._work()
            self.times.append(start)
            self.seconds.append(time.perf_counter() - start)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a wall time spent in [start, end] into
        reference-machine time."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        return REF_SECONDS / statistics.median(self.seconds[lo:hi])

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.seconds)
