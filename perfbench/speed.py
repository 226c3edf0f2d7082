"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared machine every process slows down and speeds up together, by
up to 1.6x over seconds and minutes (README.md, "Speed-normalised
times").  The driver times this kernel before the first child and after
each child, so every child's run lies between two gauge samples, and
divides the child's times by ``speed_factor``: how much slower than the
reference the machine ran while the child ran.  The benchmark so reports
seconds at one fixed reference speed.

The kernel is interpreted Python with small containers and many tiny
numpy calls, as in the Monte Carlo trial loop and the decoy rounds.  A
variant that also streamed a 32 MiB matrix, as the wide extraction does,
tracked the workloads worse, ``mc_wide`` included.  The gauge runs in the
driver process, so it does not touch the children's peak RSS.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on the machine the benchmark was written on
# (2 vCPUs of a shared Intel Xeon, one BLAS thread).  Only a scale: any
# fixed value gives the same ratios between runs and between commits.
REF_KERNEL_S = 0.005
REPS = 7  # kernel runs per gauge sample; their median is the sample

_SMALL = np.eye(5, dtype=complex)


def kernel() -> float:
    """One fixed unit of interpreter-bound work; the result keeps it from being skipped."""
    acc = 0.0
    rows = {}
    for i in range(6000):
        rows[i % 61] = (i * 7) % 13
        acc += rows.get(i % 17, 0)
    vec = _SMALL[:, 0]
    for _ in range(1000):
        vec = _SMALL @ vec
        acc += float(np.abs(vec).sum())
    return acc


def sample(reps: int = REPS) -> float:
    """One gauge sample: the median seconds of ``reps`` kernel runs."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_factor(before_s: float, after_s: float) -> float:
    """How much slower than the reference the machine ran between two samples (> 1 is slower)."""
    return (before_s + after_s) / 2 / REF_KERNEL_S
