"""A probe of the machine's speed, to take it out of the benchmark's times.

On a shared virtual machine the speed one process gets swings by 1.3-1.7x,
over seconds and over minutes, with the neighbours' load; steal time does
not show it.  Wall times of the same work then differ more between runs
than any useful bound.  The probe is a fixed piece of pure-Python work
shaped like the solver's own: set-based domains, a propagation queue and a
trail.  It does not use ``matrixcp``, so no change to the package moves it.

The benchmark runs the probe before every solve and divides each wall time
by the mean probe time around it over ``REFERENCE_S``.  The quotient is
the time the same work takes at reference speed, at which one probe takes
4 ms.  On a 2-vCPU Xeon virtual machine at 2.0 GHz with Python 3.11, a
probe takes 2.7-6 ms depending on the neighbours' load.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REFERENCE_S = 0.004
WINDOW = 10  # probes within this many times a span's length count for it


def _colouring(seed, n=60, colours=8, edges=150, steps=40):
    """Assign and propagate on a random graph colouring, undoing every
    seventh step; returns the summed domain sizes."""
    rng = random.Random(seed)
    doms = {v: set(range(colours)) for v in range(n)}
    adj = {}
    for _ in range(edges):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    trail = []
    for step in range(steps):
        v = rng.randrange(n)
        if doms[v]:
            trail.append((v, frozenset(doms[v])))
            doms[v] = {min(doms[v])}
            queue = [v]
            while queue:
                x = queue.pop()
                if len(doms[x]) != 1:
                    continue
                (only,) = doms[x]
                for y in adj.get(x, ()):
                    if only in doms[y] and len(doms[y]) > 1:
                        trail.append((y, frozenset(doms[y])))
                        doms[y] = doms[y] - {only}
                        queue.append(y)
        if step % 7 == 6:
            while trail:
                u, d = trail.pop()
                doms[u] = set(d)
    return sum(len(d) for d in doms.values())


def probe():
    """Seconds that one fixed unit of work takes now."""
    t0 = time.perf_counter()
    for seed in range(8):
        _colouring(seed)
    return time.perf_counter() - t0


class Probes:
    """Probe times, each with the moment it was taken."""

    def __init__(self):
        self.at = []
        self.seconds = []

    def take(self):
        self.at.append(time.perf_counter())
        self.seconds.append(probe())

    def factor(self):
        """How much slower than reference speed the machine ran over all
        the probes: their mean time over ``REFERENCE_S``."""
        return statistics.fmean(self.seconds) / REFERENCE_S

    def factor_around(self, start, end):
        """The same over the probes taken within ``WINDOW`` times the
        length of the span from ``start`` to ``end`` of it, and at least
        the last one before it and the first one after it.  The speed
        changes within a fraction of a second, and a long span averages
        those changes out: so a short solve gets the speed of its moment,
        and a long one the speed of the tens of seconds around it."""
        reach = WINDOW * (end - start)
        lo = min(bisect.bisect_left(self.at, start - reach),
                 bisect.bisect_right(self.at, start) - 1)
        hi = max(bisect.bisect_right(self.at, end + reach),
                 bisect.bisect_right(self.at, end) + 1)
        return statistics.fmean(self.seconds[max(lo, 0):hi]) / REFERENCE_S
