"""A fixed slice of work that does not touch dctcsim, timed between ops, so
that the host's own speed can be divided out of the timing metrics.

On the shared 2-core machine behind ``results/``, the same op mix runs up
to 1.5x slower in spells that last minutes, and whole runs follow them.
Small numpy calls and interpreter work slow down in step with the
workloads (over 30 s spans their times correlate at 0.8 to 0.94), so the
ratio of a slice's time to :data:`REF_S` measures how slow the host is
while the ops run.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median time of one slice on the reference machine.  It only sets the
# scale of the adjusted figures; a different value scales every run alike.
REF_S = 0.030
_U = np.eye(4, dtype=complex)
_A = np.zeros((4, 4, 4, 4), dtype=complex)


def slice_s() -> float:
    """Seconds one fixed slice of small-array numpy and interpreter work takes."""
    t0 = perf_counter()
    a = _A
    for _ in range(1500):
        a = np.tensordot(_U, a, axes=([1], [0]))
    d: dict[int, int] = {}
    for i in range(60000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return perf_counter() - t0


def mean_slice_s(count: int) -> float:
    return sum(slice_s() for _ in range(count)) / count
