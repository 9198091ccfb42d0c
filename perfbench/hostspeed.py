"""Host-speed normalisation of the benchmark's timings.

On a shared host the speed of a vCPU drifts by up to a factor of two over
seconds to minutes, with CPU time equal to wall time, so raw timings of the
same code spread far more than any useful regression bound.  The benchmark
therefore runs a fixed pure-Python calibration loop (tuple keys in a dict,
int arithmetic, Fraction sums: the operations dpcount spends its time on)
about twice a second and scales timed work by how fast the host ran the
loop around it.  Between two calibrations that take c1 and c2 seconds,

    normalised = raw * REFERENCE_S / mean(c1, c2)

and a segment that spans several calibrations is the sum of its pieces,
with the calibrations themselves left out.  A normalised time is the time
the work would have taken on a host that runs the loop in ``REFERENCE_S``
seconds.  The loop never calls the package, so a change to dpcount moves
normalised times exactly as it moves raw ones.  Raw times are printed
beside them.

Calibrations run before and after each pass and, inside ``sampling()``,
from a SIGALRM handler every ``PERIOD_S``, so that a single call lasting
seconds is still calibrated throughout.  The handler only runs pure-Python
code that touches no package state.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# Median time of one calibration loop on a 2-vCPU 2.0 GHz Xeon host (Python 3.11).
REFERENCE_S = 0.025
LOOP_SIZE = 13000
PERIOD_S = 0.5  # interval of the calibration timer inside untraced passes


def calibration_loop(n: int = LOOP_SIZE) -> tuple[int, Fraction]:
    table: dict[tuple[int, int, int], int] = {}
    total = 0
    acc = Fraction(0)
    for i in range(1, n):
        key = (i % 251, i % 13, i & 7)
        total += table.get(key, 0) + i * (i ^ 0x5BD1)
        table[key] = total & 0xFFFF
        if i % 4 == 0:
            acc += Fraction(i % 89 + 1, i % 97 + 1)
    return total, acc


class HostSpeed:
    """Calibration points on the perf_counter timeline, and the scaling they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self._busy = False
        self.calibrate()

    def calibrate(self) -> None:
        """Run the loop once with the collector off, so its time does not depend on the package's heap."""
        if self._busy:  # the alarm fired during a calibration
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_loop()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.seconds.append(end - start)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    @contextmanager
    def sampling(self):
        """Calibrate every PERIOD_S from a timer signal, also in the middle of a call."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalise(self, start: float, seconds: float) -> float:
        """`seconds` of work begun at `start`, less the calibrations inside it, scaled piece by piece.

        The segment must lie between two calibrations: the caller calibrates
        after its last segment before asking.
        """
        end = start + seconds
        first = bisect.bisect_right(self.ends, start) - 1
        last = bisect.bisect_left(self.starts, end)
        if first < 0 or last >= len(self.starts):
            raise ValueError("segment is not bracketed by calibrations")
        total = 0.0
        for i in range(first, last):
            piece = min(self.starts[i + 1], end) - max(self.ends[i], start)
            if piece > 0:
                total += piece * REFERENCE_S * 2 / (self.seconds[i] + self.seconds[i + 1])
        return total
