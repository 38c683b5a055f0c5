"""Fixed reference kernels, timed alongside the engine, that measure host speed.

On a shared host the same work can take from 1x to 1.9x as long from one
second to the next, in CPU time as well as in wall time, while steal
time stays at a few percent: neighbours slow the caches and cores we
share with them.  Medians over a run do not remove a slowdown that lasts
the whole run.  So the loop also times three small kernels that never
change, every INTERVAL_S between cases:

- a pure-Python one (Fractions, tuple-keyed dicts, integer dot
  products, like the engine's bookkeeping);
- a table one (Fraction reads from a 40k-entry dict, whose working set,
  like the engine's memos, does not fit in the caches);
- a numpy one (an int64 box scan, like Polytope._numpy_scan).

A sample's slowdown is the mean, half Python (the first two) and half
numpy, of each kernel's time over its nominal time.  A case's time is
divided by the median slowdown of the samples within WINDOW_S of it, to
the power ELASTICITY (around()), as the host's speed changes within
seconds.  Over ten runs each, this mix tracked both the pure-Python
battery and the numpy-heavy ladder better than either half alone or a
run-wide slowdown.  The engine's time moves less than the kernels':
over ten runs, by the slowdown to the power 0.61 on ladder and 0.88 on
battery, and dividing by the full slowdown overcorrected a later set of
ladder runs by up to 20%.

The kernels share no code with the engine.  They do share its
interpreter, heap and allocator, so each sample runs with the garbage
collector off, lest a collection scan the engine's memos.  Growing the
heap alone does not measurably move the kernels: between samples taken
after clear_caches() and after a sweep round with memos kept (22k
against 139k live objects, eight alternating pairs), the median ratio of
Python kernel times was 1.03, quartiles 0.97 to 1.24, inside the host's
own swings.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import statistics
import time
from fractions import Fraction
from random import Random

import numpy as np

# Median kernel times over twenty runs on a shared 2-core x86-64 host,
# Python 3.11, numpy 2.4.  Only their ratio to a run's own kernel times
# matters, so that "normalised ms" read as ms at that host's usual speed.
PY_NOMINAL_S = 0.0056
TABLE_NOMINAL_S = 0.0185
NP_NOMINAL_S = 0.0051
INTERVAL_S = 0.25  # at most this much engine time between two samples
WINDOW_S = 1.0  # samples this close to a case set its slowdown
ELASTICITY = 0.75  # engine time ~ slowdown ** ELASTICITY
TABLE_SIZE = 40_000
TABLE_READS = 3_000


def python_kernel() -> int:
    acc: dict = {}
    for i in range(1, 400):
        f = Fraction(i % 97, 101) + Fraction(1, i)
        key = (i % 50, f.denominator % 7)
        acc[key] = acc.get(key, 0) + f.numerator % 13
    u = (3, -2, 5)
    for y in itertools.product(range(-6, 7), repeat=3):
        if sum(a * b for a, b in zip(u, y)) + 4 >= 0:
            acc[y[0]] = acc.get(y[0], 0) + 1
    return len(acc)


def make_table():
    """The table kernel's dict and the keys it reads, in random order."""
    rng = Random(0)
    table = {
        (i, i % 7, i % 13): Fraction(rng.randint(1, 999), rng.randint(1, 999))
        for i in range(TABLE_SIZE)
    }
    keys = [(i, i % 7, i % 13) for i in rng.sample(range(TABLE_SIZE), TABLE_READS)]
    return table, keys


def table_kernel(table, keys) -> int:
    acc = Fraction(0)
    out: dict = {}
    for k in keys:
        f = table[k]
        acc += f
        kk = (k[1], f.denominator % 11)
        out[kk] = out.get(kk, 0) + 1
    return len(out)


def numpy_kernel() -> int:
    axes = [np.arange(-20, 21, dtype=np.int64)] * 3
    grids = np.meshgrid(*axes, indexing="ij")
    y = np.stack([g.reshape(-1) for g in grids], axis=1)
    mask = np.ones(y.shape[0], dtype=bool)
    for u in ((1, 2, 3), (-3, 1, 1), (1, -1, 2), (-1, -1, -1)):
        mask &= y @ np.asarray(u, dtype=np.int64) + 40 >= 0
    return int(y[mask].shape[0])


class HostSpeed:
    """Timestamped kernel samples of one run and the slowdown they imply
    (1 = nominal)."""

    def __init__(self):
        self._table = make_table()
        self.times: list[float] = []  # sample times, ascending
        self.slowdowns: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        clock = time.perf_counter
        gc_on = gc.isenabled()
        gc.disable()  # a collection would scan the engine's heap
        try:
            t0 = clock()
            python_kernel()
            t1 = clock()
            table_kernel(*self._table)
            t2 = clock()
            numpy_kernel()
            t3 = clock()
        finally:
            if gc_on:
                gc.enable()
        py = ((t1 - t0) / PY_NOMINAL_S + (t2 - t1) / TABLE_NOMINAL_S) / 2
        self.times.append(t3)
        self.slowdowns.append((py + (t3 - t2) / NP_NOMINAL_S) / 2)
        self._last = clock()

    def sample_if_due(self) -> None:
        """Sample once per INTERVAL_S of time since the last sample (max 20)."""
        due = int((time.perf_counter() - self._last) / INTERVAL_S)
        for _ in range(min(due, 20)):
            self.sample()

    def slowdown(self) -> float:
        """Median slowdown over the run."""
        return statistics.median(self.slowdowns)

    def run_factor(self) -> float:
        """What a time measured at no single moment of the run is divided by."""
        return self.slowdown() ** ELASTICITY

    def around(self, t0: float, t1: float) -> float:
        """What a case that ran over [t0, t1] is divided by: the median
        slowdown of the samples within WINDOW_S of it, or of the three
        nearest when fewer than three lie there, to the power ELASTICITY."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi - lo < 3:
            mid = (t0 + t1) / 2
            near = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            return statistics.median(self.slowdowns[i] for i in near[:3]) ** ELASTICITY
        return statistics.median(self.slowdowns[lo:hi]) ** ELASTICITY
