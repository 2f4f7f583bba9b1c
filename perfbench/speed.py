"""Machine-speed reference for the benchmark's timings.

The machines this benchmark runs on change speed from one minute to the
next, by up to half again, and the phases last longer than a run.  A fixed
piece of pure-Python work of the package's own kind (Fraction arithmetic,
tuples, dicts), the reference loop, is timed between chunks of the
workload's work.  Each chunk's time is scaled by REF_NOMINAL_S over the mean
of the reference times just before and just after it.  A timing reported
this way is in seconds at reference speed: the time the work would take on
a machine where the reference loop takes REF_NOMINAL_S.  The reference loop
uses nothing from the package, so a change to the package moves the scaled
times as it moves the raw ones; the raw times are kept in the run record.
"""

from __future__ import annotations

import time
from array import array
from fractions import Fraction

# About the reference loop's time on the 2-core Xeon of README.md in its
# fast phases (3-7 ms over all phases).
REF_NOMINAL_S = 0.004
# Work done between two reference samples, in raw seconds.
SAMPLE_EVERY_S = 0.1


def reference_loop():
    """Time one run of the fixed reference work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 1500):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[(i, i % 3)] = tuple(range(i % 6))
    return time.perf_counter() - t0


class Speed:
    """Reference samples of one run."""

    def __init__(self):
        self.samples = array("d", [reference_loop()])

    def factor(self):
        """Sample the reference loop again.  Returns the factor that scales
        the work done since the previous sample to reference speed."""
        self.samples.append(reference_loop())
        return 2 * REF_NOMINAL_S / (self.samples[-2] + self.samples[-1])
