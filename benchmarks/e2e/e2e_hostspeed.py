"""Host-speed yardstick for the end-to-end timings.

The benchmark runs on hosts shared with other tenants.  On the two-vCPU
host of the baseline, a neighbour's load slows every computation of
this process by up to ~1.7x, in bursts that last from a fraction of a
second to minutes.  Steal time stays near zero, so CPU time slows too,
and no statistic over one 15 s run removes a slowdown that lasts all
of it: quartile spreads of raw timings over repeated runs reached
20-43%.

So while a run is measured, :class:`HostSpeed` interrupts it every
``INTERVAL_S`` (``SIGALRM``, main thread, between bytecodes) to run
:func:`reference_work` — fixed code of the kinds the program runs:
interpreter dict and list work, small numpy vector ops, a small matrix
chain and, for a workload whose time goes to large arrays, a 2 MB copy
— and records how long it took.  Under load, large-array work and the
copy slow less than the rest: normalized without the copy, ``paper``'s
times fell as the load rose; with it, those of the fleets and
``collect`` rose.  A timed interval, minus the reference work that ran
inside it, is divided by the host slowdown around it: the mean
reference time over the interval
(widened by ``HALO_S`` on each side) over ``REFERENCE_S``, its time on
the baseline host when quiet.  Timings therefore read as seconds on
that host at its quiet speed.  The reference work does not import the
program, so a change to the program moves the timings, not the
yardstick.  The reference work runs with the garbage collector off, so
a collection of the program's objects is never charged to it.

Run as a script (with the program on ``PYTHONPATH``) it prints the
normalized time of importing the program in this fresh interpreter;
numpy, which the yardstick needs, is imported before the clock starts.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import List

import numpy as np

#: Seconds between two reference samples (~2% of the run's time).
INTERVAL_S = 0.05
#: Time of one :func:`reference_work`, with and without the copy, on the
#: baseline host when quiet: the 10th percentile of 3600 samples taken
#: over three minutes of ``collect`` and ``fleet_ideal`` runs was
#: 1.00-1.05 ms with it; without it, 0.58 times that in 3000 samples
#: interleaved with ones that had it.
REFERENCE_S = {True: 1.0e-3, False: 0.58e-3}
#: An interval's slowdown averages the samples within this many seconds
#: of it, and at least ``MIN_SAMPLES`` of the nearest ones.
HALO_S = 0.25
MIN_SAMPLES = 8

_TABLE: dict = {}
_COLUMNS = np.ones((16, 128))
_MATRIX = np.random.default_rng(0).random((48, 48))
_SOURCE = np.ones(1 << 18)
_TARGET = np.empty_like(_SOURCE)


def reference_work(copy: bool) -> float:
    """A fixed computation that needs ``REFERENCE_S[copy]`` on a quiet
    baseline host."""
    table, pairs = _TABLE, []
    table.clear()
    for i in range(1500):
        key = i % 97
        table[key] = table.get(key, 0) + i
        if i % 7 == 0:
            pairs.append((key, float(i)))
    pairs.sort(key=lambda pair: pair[1])
    vector = np.ones(16)
    for i in range(150):
        vector = vector + _COLUMNS[:, i % 128] * 0.5
    product = _MATRIX
    for _ in range(20):
        product = _MATRIX @ product
        product *= 0.01
    total = float(vector[0] + product[0, 0])
    if copy:
        np.copyto(_TARGET, _SOURCE)
        total += float(_TARGET.sum())
    return total


class HostSpeed:
    """Samples :func:`reference_work` on a timer while the ``with`` block
    runs; ``spent`` is the time those samples took."""

    def __init__(self, copy: bool) -> None:
        self.copy = copy
        self.starts: List[float] = []
        self.costs: List[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_work(self.copy)
        cost = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.costs.append(cost)
        self.spent += cost

    def __enter__(self) -> "HostSpeed":
        # Enough samples up front that even the shortest block has a
        # slowdown estimate.
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean reference time around ``[start, end]`` over its quiet time."""
        low = bisect.bisect_left(self.starts, start - HALO_S)
        high = bisect.bisect_right(self.starts, end + HALO_S)
        while high - low < MIN_SAMPLES and (low > 0 or high < len(self.starts)):
            low, high = max(low - 1, 0), min(high + 1, len(self.starts))
        window = self.costs[low:high]
        return sum(window) / len(window) / REFERENCE_S[self.copy]

    def normalized(self, start: float, end: float, net: float) -> float:
        """``net`` seconds of ``[start, end]`` (its duration minus the
        samples inside it) at the baseline host's quiet speed."""
        return net / self.slowdown(start, end)


def import_seconds() -> float:
    """Normalized time to import the program in this interpreter.  Its
    reference work has the copy: over two sets of ten seeds per
    workload, ``setup_s`` spread 2-7% with it and 4-10% without."""
    with HostSpeed(copy=True) as speed:
        spent, start = speed.spent, time.perf_counter()
        import repro.core  # noqa: F401
        import repro.experiments  # noqa: F401
        import repro.sim  # noqa: F401
        import repro.wsn  # noqa: F401
        end = time.perf_counter()
        net = end - start - (speed.spent - spent)
    return speed.normalized(start, end, net)


if __name__ == "__main__":
    print(import_seconds())
