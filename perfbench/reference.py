"""A fixed reference computation that measures the machine's speed.

The benchmark runs on a few cores of a shared host whose speed drifts: runs
of the same calls a minute apart differ by up to 1.5x in wall time, and a
median over a 20-s run does not average that out.  So the workload process
runs this kernel between its calls, about four times per second of calls,
and reports the pass time (the sum of each call's median time) divided by
the kernel's median time over the same run (`wall_ref`).  A change to the program moves the numerator
only: the kernel imports nothing from the package and does the same work in
every run.  perfbench/README.md says why the two medians are compared
rather than each call with the kernel runs beside it.

The kernel mixes the kinds of work the package does: an interpreter loop,
many numpy calls on tiny arrays, and dense LAPACK and BLAS on a matrix of a
few hundred rows.  One call takes about 20 ms on one BLAS thread of a 2-core
Xeon.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20250219)
_DENSE = _RNG.random((160, 160)) + 160.0 * np.eye(160)
_WIDE = _RNG.random((300, 300)) / 300.0
_TINY = _RNG.random(16)


def run() -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    x = _TINY
    for _ in range(600):
        x = np.sqrt(x * x + 1.0) - 0.5
    for _ in range(4):
        np.linalg.solve(_DENSE, _DENSE)
    y = _WIDE
    for _ in range(4):
        y = _WIDE @ y
    return time.perf_counter() - start
