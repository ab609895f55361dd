"""Machine-speed gauge: a fixed pure-Python reference kernel.

Two kinds of host noise move a timing that the program did not cause:

- the host takes the CPU away for a while (another guest, steal time).
  Timings are therefore taken on the thread's CPU clock: a decision is
  pure computation on one thread, so its CPU time is its decision time,
  and time spent descheduled is left out;
- the host's speed moves between levels that last from seconds to tens
  of seconds (frequency, neighbours sharing caches).  The gauge runs a
  fixed kernel, about 20 ms of dict inserts and heap pushes/pops, between
  slices of timed requests.  Every slice's CPU time is multiplied by
  ``NOMINAL_KERNEL_S / kernel CPU time measured next to it``, so a timing
  reads as if the host ran at the kernel's nominal speed.  The kernel's
  code never changes with the program under test, so the factor cancels
  host speed and nothing else.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

#: Loop count of one kernel run.
KERNEL_ROUNDS = 18_000

#: Nominal CPU time of one kernel run, about its median on a 2 vCPU KVM
#: guest with Python 3.11.7.  Scaled timings are expressed at this speed.
NOMINAL_KERNEL_S = 0.0200

#: Kernel runs on each side of a slice whose median sets its factor.
WINDOW = 3


def reference_kernel() -> int:
    """Fixed work: LCG-keyed dict inserts plus a bounded heap."""
    table = {}
    heap: List[tuple] = []
    x = 1
    for i in range(KERNEL_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 0x3FFF] = i
        heapq.heappush(heap, (x, i))
        if len(heap) > 256:
            heapq.heappop(heap)
    return len(table) + len(heap)


class SpeedGauge:
    """Runs the kernel on demand and keeps every measured time."""

    def __init__(self) -> None:
        self.nominal_s = NOMINAL_KERNEL_S
        self.samples: List[float] = []

    def measure(self) -> float:
        """One kernel run's CPU time, in seconds."""
        start = time.thread_time()
        reference_kernel()
        elapsed = time.thread_time() - start
        self.samples.append(elapsed)
        return elapsed

    def factors(self, kernels: List[float]) -> List[float]:
        """Scale factor of each slice of work between two kernel runs.

        Slice ``i`` ran between ``kernels[i]`` and ``kernels[i + 1]``.  Its
        factor uses the median of up to ``WINDOW`` kernel runs on each
        side: that follows the host's speed levels, which last seconds,
        without passing one kernel run's jitter on to the slice.
        """
        return [
            self.nominal_s
            / statistics.median(kernels[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
            for i in range(len(kernels) - 1)
        ]

    def summary(self) -> dict:
        """Measured kernel times next to the nominal one."""
        samples = self.samples
        return {
            "nominal_s": self.nominal_s,
            "runs": len(samples),
            "median_s": statistics.median(samples) if samples else None,
            "min_s": min(samples) if samples else None,
            "max_s": max(samples) if samples else None,
        }
