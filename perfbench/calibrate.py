"""Host speed probe: a fixed piece of work, independent of freelines.

The benchmark shares a few vCPUs with other tenants, and the speed of those
vCPUs drifts by 10-50% over minutes. The drift slows the benchmark's probe
and the program alike, so a run times the probe between its operations and
scales every time it reports by REFERENCE_S / (the run's typical probe
time, see Calibrator.scale). The reported times then read as seconds on a
host where the probe takes REFERENCE_S, and a change to freelines moves them
as much as it moves the raw times, because the probe runs none of its code.
The unscaled figures stay in the run description.

The probe mixes the kinds of work the layers do: fraction-free elimination on
Python integers of a few hundred bits (exactlinalg), interpreted arithmetic
on small tuples (arrangement, search) and a numpy product on about a
megabyte (derivations, saito).
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.010  # probe time that the scaled metrics are expressed at
EVERY_S = 0.25  # least time between two probes in a run


def _bareiss(matrix: list[list[int]]) -> int:
    m = [row[:] for row in matrix]
    n, prev = len(m), 1
    for k in range(n - 1):
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi, mik = m[i], m[i][k]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
        prev = pivot
    return m[-1][-1]


def _cross_products(points: list[tuple[int, int, int]]) -> int:
    # interpreter work on small ints that allocates nothing lasting: a probe
    # that fills a dict slows with the size of the program's heap, not the host
    acc = 0
    for a in points:
        for b in points:
            acc ^= (a[1] * b[2] - a[2] * b[1]) * 31 + (a[2] * b[0] - a[0] * b[2]) * 7 + a[0] * b[1]
    return acc


class Calibrator:
    """Times the probe at most every EVERY_S seconds; keeps every sample."""

    def __init__(self):
        rng = random.Random(20240601)
        self._matrix = [[rng.randrange(1, 2**24) for _ in range(22)] for _ in range(22)]
        self._points = [tuple(rng.randrange(-99, 100) for _ in range(3)) for _ in range(110)]
        gen = np.random.default_rng(20240601)
        self._a = gen.standard_normal((256, 256))
        self._b = gen.standard_normal((256, 768))
        self.samples: list[float] = []
        self._work()  # first touch of the arrays is not a sample
        self._last = perf_counter()

    def _work(self) -> float:
        # the cyclic collector would charge the probe for the program's heap
        gc.disable()
        try:
            t0 = perf_counter()
            _bareiss(self._matrix)
            _cross_products(self._points)
            (self._a @ self._b).sum()
            return perf_counter() - t0
        finally:
            gc.enable()

    def sample(self) -> None:
        self.samples.append(self._work())
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        """One probe per EVERY_S seconds since the last, so long operations get as many."""
        due = int((perf_counter() - self._last) / EVERY_S)
        for _ in range(min(due, 100)):
            self.samples.append(self._work())
        if due:
            self._last = perf_counter()

    def scale(self) -> float:
        """Factor that takes this run's times to the reference host speed.

        The host switches between a fast and a slow state (probe times near
        7 and 11 ms on one machine), and an operation pays for the share of
        its time spent in each. The mean of the middle half of the samples
        follows that share, where a median jumps from one state to the other,
        and a stall at either end does not move it.
        """
        s = sorted(self.samples)
        k = len(s) // 4
        return REFERENCE_S / statistics.mean(s[k:len(s) - k])
