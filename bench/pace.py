"""The machine's pace, from a fixed reference loop timed between operations.

On a shared host the same work can take 20-40 % longer for tens of
seconds at a time, because other tenants load the physical cores.  A
run that falls into a slow stretch then reads slow, whatever the
program does.  To take that out of the end-to-end timings, the timed
loop runs a fixed reference workload right after each operation: a
small-matrix and float loop with the same mix of interpreter and
numpy-call overhead as the hypiso kernels, and no hypiso code, so a
change to the program cannot move it.  Its time against its nominal
time is the machine's slowness at that moment.  An operation's paced
time is its wall time divided by the square root of that slowness
(see EXPONENT): an estimate of the time it would have taken at the
reference pace.  Raw wall times are reported next to the paced ones.

One reference sample is short and can catch a single interrupt, so
each operation is divided by the median slowness of the samples
taken within WINDOW_S seconds of it.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter

import numpy as np

# time of one reference chunk at the reference pace, about its median
# on a 2-vCPU Intel Xeon host with Python 3.11 and numpy 2.4.  It is a
# fixed scale: any constant would do, as long as it never changes.
CHUNK_S = 1.0e-3
# reference work after each operation, as a share of the operation
SHARE = 0.1
# The program slows less than the reference does.  Regressing, seed
# by seed, the log ratio of a run's raw throughput in two batches on
# the log ratio of its median slowness gave exponents of 0.51-0.65 on
# all three workloads, so times are divided by the square root of the
# slowness.
EXPONENT = 0.5
# samples this close in time to an operation set its slowness.  The
# contention comes and goes within a second: on 13-second blocks of
# placed verifies, divided by the full slowness, windows of 0.25 s, 1 s
# and 5 s left spreads of 0.09, 0.12 and 0.24 (0.20 unpaced)
WINDOW_S = 0.25
_STEPS = 400


def chunk() -> float:
    """One unit of reference work."""
    m = np.eye(3)
    acc = 0.0
    for k in range(_STEPS):
        c, s = math.cosh(1e-3 * k), math.sinh(1e-3 * k)
        r = np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        m = m @ r
        acc += float(m[0, 0]) * c - s
    return acc


def slowness(op_s: float) -> float:
    """Run reference work worth SHARE of an operation that took op_s
    seconds (at least one chunk) and return its time over its nominal
    time: above 1 on a machine slower than the reference pace."""
    n = max(1, round(SHARE * op_s / CHUNK_S))
    # the chunks make no reference cycles; with the collector on, they
    # would pay for collecting the program's heap
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(n):
            chunk()
        dt = perf_counter() - t0
    finally:
        gc.enable()
    return dt / (n * CHUNK_S)


def paced(latency: list, slowness: list, ends: list) -> list:
    """Latencies at the reference pace.

    `ends[i]` is when operation i ended and `slowness[i]` the sample
    taken right after it.
    """
    out = []
    lo = hi = 0
    for t, end in zip(latency, ends):
        while ends[lo] < end - WINDOW_S:
            lo += 1
        while hi < len(ends) and ends[hi] <= end + WINDOW_S:
            hi += 1
        out.append(t / statistics.median(slowness[lo:hi]) ** EXPONENT)
    return out
