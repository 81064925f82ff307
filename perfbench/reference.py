"""A frozen reference computation that rescales measured times.

On a shared two-core host the speed of a process halves and recovers in
regimes that last from a fraction of a second to seconds, and process CPU
time drifts with wall time, so neither removes the drift.  The benchmark
therefore runs a small fixed piece of pure-Python work, the reference,
every PERIOD_S seconds from a SIGALRM handler while the program works, and
rescales each op's time by NOMINAL_S / (mean reference time during the op).
The reference mirrors what the program spends its time on: exact Fraction
elimination, tuple building and dict lookups.  It imports nothing from
twistdual.  Time spent in the handler is subtracted from the op.

Do not change `_work`, PERIOD_S or NOMINAL_S: every recorded normalised
figure depends on them.  NOMINAL_S is the median reference time measured on
the machine described in README.md; its value only fixes the unit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.000570
PERIOD_S = 0.005

_MATRIX = [[(3 * i + 5 * j) % 7 - 3 + (i == j) * 9 for j in range(4)] for i in range(4)]


def _work():
    # Gauss-Jordan on a fixed 4x4 rational system with a 2-column rhs
    a = [[Fraction(x, 1 + (i + j) % 3) for j, x in enumerate(row)]
         + [Fraction(i + k) for k in range(2)] for i, row in enumerate(_MATRIX)]
    for c in range(4):
        piv = next(i for i in range(c, 4) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(4):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    # orbit closure of small tuples under two moves, as a dict
    seen = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    while frontier:
        nxt = []
        for v in frontier:
            for w in ((v[1], v[2], (v[0] + 1) % 4), (v[0], (v[1] + v[2]) % 4, v[2])):
                if w not in seen:
                    seen[w] = len(seen)
                    nxt.append(w)
        frontier = nxt
    return a[3][5], len(seen)


class Normaliser:
    """Samples the reference speed while the program runs.

    `spent` is the handler time so far; a caller timing an interval
    subtracts the change in `spent` over it.  `factor(start, end)` is
    NOMINAL_S over the mean reference time of the samples from the last
    one before `start` to the first one after `end`, so an op always has
    samples on both sides, and a long op follows the regimes it ran
    through.
    """

    def __init__(self):
        self.stamps = []       # perf_counter() at the end of each sample
        self.samples = []      # seconds of each sample
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start, end):
        i = max(bisect.bisect_right(self.stamps, start) - 1, 0)
        j = bisect.bisect_left(self.stamps, end) + 1
        window = self.samples[i:j]
        return NOMINAL_S * len(window) / sum(window)

    def median_factor(self):
        return NOMINAL_S / statistics.median(self.samples)
