"""Calibration kernels: fixed work timed between operations.

The shared two-vCPU host this benchmark was written on changes speed by
up to 1.7x from one stretch of seconds to the next, and by as much
between runs, because other machines' work competes for the same cores
and disks.  Ten runs of the same code then spread by 13-45% in raw
operation time.  Timing a fixed kernel between operations measures how
fast the machine is at that moment, and

    op_ref_s = op_s / slowdown,    slowdown = kernel_s / reference_s

rescales an operation to what it would have taken at the reference
speed: the fast state of that host (x86_64, 2 vCPUs, Python 3.11.7).

Two kernels, because in-process work and fresh processes slow down for
different reasons:

* ``cpu``: a subset dynamic program over 2^11 states with bisect lookups,
  the same kind of work (list indexing, integer arithmetic, bisect, small
  loops) as the package's hot paths.  In interleaved tests it cut the
  spread of 15-second medians of in-process operations from 15-32% to
  2-7%.
* ``process``: a fresh interpreter that imports numpy, the fixed part of
  every CLI process.  It cut the same spread for the CLI operation from
  23% to 2%, where the ``cpu`` kernel only reached 13%.

Both live here, not in the package, so a change to the package never
changes them.
"""

from __future__ import annotations

import subprocess
import sys
from bisect import bisect_right
from time import perf_counter

N = 11
LENGTHS = [(i * 7) % 10 + 1 for i in range(N)]
DUES = [sorted((j * 13 + i * 5) % 60 for j in range(40)) for i in range(N)]
# share of the timed phase spent in the kernel, so that long operations
# get a proportionally longer look at the machine's speed around them
SHARE = 0.15


def cpu_kernel() -> None:
    full = (1 << N) - 1
    load = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        load[mask] = load[mask ^ low] + LENGTHS[low.bit_length() - 1]
    best = [0] * (full + 1)
    for mask in range(full - 1, -1, -1):
        value = None
        for i in range(N):
            if not mask >> i & 1:
                finish = load[mask] + LENGTHS[i]
                cost = bisect_right(DUES[i], finish) * finish + best[mask | 1 << i]
                if value is None or cost < value:
                    value = cost
        best[mask] = value


def process_kernel() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True)


# kernel and its seconds per call at the reference speed
KERNELS = {"cpu": (cpu_kernel, 0.0055), "process": (process_kernel, 0.16)}


class Meter:
    """Runs a kernel between operations for SHARE of the time they take."""

    def __init__(self, kind: str) -> None:
        self.kernel, self.reference_s = KERNELS[kind]
        self.op_s = 0.0
        self.kernel_s = 0.0
        self.slowdown: float | None = None

    def window(self, op_s: float = 0.0) -> float:
        """After an operation of ``op_s`` seconds: the latest slowdown."""
        self.op_s += op_s
        calls, spent = 0, 0.0
        while (self.slowdown is None and calls == 0) or self.kernel_s + spent < SHARE * self.op_s:
            start = perf_counter()
            self.kernel()
            spent += perf_counter() - start
            calls += 1
        self.kernel_s += spent
        if calls:
            self.slowdown = spent / calls / self.reference_s
        return self.slowdown
