"""A fixed calibration kernel that tracks how fast the host runs right now.

The benchmark shares its host's cores with other tenants. Their load
slows every timing, by up to 2.5x, in bursts that last from ten seconds
to minutes, which is longer than one run. Wall-clock timings of the
same code therefore differ by 30% or more from one run to the next.

The kernel below does a fixed amount of the two kinds of work the lab
does: a compute part (Python bytecode and many calls into numpy on small
arrays) and a memory part (streaming reads of an array larger than the
L2 cache). The host slows them much as it slows the lab. A run samples
the kernel between its items and scales each timing by `REF_S` over the
geometric mean of the two parts' median times near it. The scaled
timings read as milliseconds or seconds on the host running at the
reference speed. A change to the lab moves them exactly as it moves the
raw timings, because the kernel calls none of its code.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# About the geometric mean of the two parts' times on a 2-core x86-64 VM
# when quiet; it only fixes the unit, so it never needs re-measuring.
REF_S = 0.001


class HostSpeed:
    """The calibration kernel and the arrays it works on."""

    def __init__(self):
        self._small = np.zeros(8, dtype=complex)
        self._vec = np.arange(1 << 10, dtype=complex)
        self._perm = np.random.default_rng(0).permutation(1 << 10)
        self._stream = np.ones(1 << 20)  # 8 MiB, twice the L2 cache

    def sample(self) -> tuple[float, float]:
        """Run the kernel once; return the seconds its compute part and its
        memory part took."""
        t0 = time.perf_counter()
        total = 0
        for i in range(12000):
            total += i
        for _ in range(200):
            np.add(self._small, self._small, out=self._small)
            self._vec[self._perm]
        t1 = time.perf_counter()
        self._stream.sum()
        return t1 - t0, time.perf_counter() - t1


def scale(samples: list[tuple[float, float]]) -> float:
    """Factor that takes a timing made during these kernel samples to the
    reference speed."""
    compute = statistics.median(c for c, _ in samples)
    memory = statistics.median(m for _, m in samples)
    return REF_S / math.sqrt(compute * memory)
