"""A speed meter: how fast the machine runs Python at each moment of a run.

On a shared host the same code runs about 1.8 times slower whenever the
host keeps the other hardware thread of our core busy, and the two speeds
alternate within fractions of a second or hold for minutes.  A run's wall
times therefore depend on how long it spent in each state.  ``SpeedMeter``
interrupts the run every ``TICK_S`` seconds (``SIGALRM``) and times a fixed
pure-Python kernel of 0.3-0.6 ms; ``normalize`` turns a wall-time interval
into the time it would have taken at the kernel's nominal speed.  The
kernel's own time is excluded from every interval (see ``spent``).  The
kernel imitates the program's mix (exact ``Fraction`` elimination, bitmask
subset enumeration with set and dict look-ups) and does not import
``convexcodes``, so a change to the program never changes it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

TICK_S = 0.01
# the kernel's time at the nominal speed, in seconds: about its time in the
# fast state of a 2-vCPU x86-64 VM with Python 3.11, where the tenth
# percentile of its samples over a 40-s run was 0.30-0.35 ms
NOMINAL_S = 0.0003


def _eliminate(rows: list[tuple[tuple[Fraction, ...], Fraction]], k: int) -> int:
    """One Fourier-Motzkin step on ``a . x <= b`` rows; returns a row checksum."""
    pos, neg, rest = [], [], []
    for a, b in rows:
        (pos if a[k] > 0 else neg if a[k] < 0 else rest).append((a, b))
    for ap, bp in pos:
        for an, bn in neg:
            lp, ln = -an[k], ap[k]
            rest.append((tuple(lp * x + ln * y for x, y in zip(ap, an)), lp * bp + ln * bn))
    return len(set(rest))


def _faces(facet: int) -> int:
    """Every face of a facet, counted by size in a dict."""
    by_size: dict[int, int] = {}
    sub = facet
    while True:
        size = sub.bit_count()
        by_size[size] = by_size.get(size, 0) + 1
        if sub == 0:
            return sum(k * v for k, v in by_size.items())
        sub = (sub - 1) & facet


class SpeedMeter:
    """Samples the kernel's time every TICK_S while started."""

    def __init__(self) -> None:
        rng = random.Random(1912)
        self.rows = [
            (tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)),
             Fraction(rng.randint(-6, 12), rng.randint(1, 4)))
            for _ in range(8)
        ]
        self.facet = 0b1011011101
        self.answer = self._work()
        self.stamps: list[float] = []  # when each sample ended
        self.samples: list[float] = []  # the kernel's time in that sample
        self.spent = 0.0  # total time inside the handler
        self.errors = 0

    def _work(self) -> tuple[int, int]:
        return _eliminate(self.rows, 0), _faces(self.facet)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        answer = self._work()
        t1 = perf_counter()
        if answer != self.answer:
            self.errors += 1
        self.stamps.append(t1)
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        self._tick(None, None)  # an interval that ends before the first tick has a sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> tuple[float, float]:
        """A timestamp and the handler time so far, to open or close an interval."""
        return perf_counter(), self.spent

    def normalize(self, start: tuple[float, float], end: tuple[float, float]) -> tuple[float, float]:
        """The interval's wall time without the handler, and that time at the
        nominal speed.  A sample of kernel time t says the machine ran at
        NOMINAL_S / t of the nominal speed for the tick before it, so the
        work done is the wall time times the mean of NOMINAL_S / t over the
        samples taken from one tick before the interval to its end, or the
        latest sample if a long call held every tick off.  A sample slowed by
        an interruption only lowers one term."""
        wall = (end[0] - start[0]) - (end[1] - start[1])
        lo = bisect.bisect_left(self.stamps, start[0] - TICK_S)
        hi = bisect.bisect_right(self.stamps, end[0])
        window = self.samples[lo:hi] or self.samples[-1:]
        return wall, wall * NOMINAL_S * statistics.fmean(1 / t for t in window)


class WallClock:
    """SpeedMeter's interface without the meter: plain wall times."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def clock(self) -> tuple[float, float]:
        return perf_counter(), 0.0

    def normalize(self, start: tuple[float, float], end: tuple[float, float]) -> tuple[float, float]:
        return end[0] - start[0], end[0] - start[0]
