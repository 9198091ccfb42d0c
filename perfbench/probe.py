"""Time one cold set-up, then the host's speed, and print both in seconds.

Set-up is: import dpcount, build a GWEngine, and fill the lazy tables
(minus_one_classes, divisor_pool) for each k given on the command line.
Interpreter start-up is not included.  The second number is the median of
three calibration loops run right after, in the same process (see
hostspeed.py).
"""

import sys
import time

start = time.perf_counter()
import dpcount  # noqa: E402

dpcount.GWEngine()
for k in map(int, sys.argv[1:]):
    dpcount.minus_one_classes(k)
    dpcount.lattice.minus_one_class_set(k)
    dpcount.divisor_pool(k)
setup = time.perf_counter() - start

from hostspeed import HostSpeed  # noqa: E402

speed = HostSpeed()
speed.calibrate()
speed.calibrate()
print(repr(setup), repr(sorted(speed.seconds)[1]))
