"""Machine-speed calibration for the benchmark.

The machines this benchmark runs on share their cores with other work, and
the speed of pure-Python code on them drifts by tens of percent within
seconds.  Raw times therefore spread too widely between runs to compare two
commits.  The ``Speedometer`` times a fixed reference loop every
PROBE_EVERY_S of CPU time, from a profiling-timer signal that runs between
bytecodes of whatever the program is doing, so the samples fall inside
long verdicts too.  The benchmark subtracts the time spent probing from
every timed call and scales the rest by REFERENCE_S / (mean reference time
during the call): the result is seconds on a machine where the reference
loop takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from itertools import combinations
from time import perf_counter

REFERENCE_S = 0.002
PROBE_EVERY_S = 0.02
_BIT = [1 << i for i in range(40)]


def _reference_loop() -> int:
    """Fixed pure-Python work of the kind the verifier's scans do: build a
    bit mask per 3-subset of 40 items and test it."""
    hits = 0
    for combo in combinations(range(40), 3):
        mask = 0
        for e in combo:
            mask |= _BIT[e]
        if mask & 0x2AAAAAAAAAAAA:
            hits += 1
    return hits


class Speedometer:
    """Samples of the reference loop's time, and the time spent taking them."""

    def __init__(self) -> None:
        self.spent = 0.0
        self._times: list[float] = []
        self._seconds: list[float] = []
        self._busy = False

    def sample(self) -> None:
        """Time the reference loop once, now.  Slow samples are kept: the
        contention that slowed one slows the program as much."""
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        try:
            _reference_loop()
            self._times.append(start)
            self._seconds.append(perf_counter() - start)
        finally:
            self.spent += perf_counter() - start
            self._busy = False

    def clock(self) -> float:
        """perf_counter() without the time spent probing."""
        return perf_counter() - self.spent

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def probing(self, start: float, end: float) -> float:
        """Seconds spent timing the reference loop in samples taken between
        perf_counter() readings ``start`` and ``end``."""
        lo = bisect_left(self._times, start)
        hi = bisect_right(self._times, end)
        return sum(self._seconds[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor turning a time measured between perf_counter() readings
        ``start`` and ``end`` into reference-machine seconds: from the
        samples taken in between, plus the nearest one on each side."""
        lo = max(bisect_left(self._times, start) - 1, 0)
        hi = bisect_right(self._times, end) + 1
        return REFERENCE_S / statistics.fmean(self._seconds[lo:hi])
