"""The estimator, in one place.

What was measured on the build machine (2 shared vCPUs; README has the
tables): the host switches, about once a second, between a fast state
and one 20-30% slower, and every phase of a round moves with it.  No
summary of raw block times can be steadier than that switching lets it
be -- over 66 pseudo-runs of 24 rounds each, ten at a time:

    estimator of the 24 blocks          (q3 - q1) / median over 10 runs
    mean of the fastest quarter         6 - 10 %   (worst 14 %)
    median                              5 -  7 %   (worst  8 %)
    median of block / adjacent kernel   1 -  3 %   (worst  5 %)

So every timed block is bracketed by two runs of a small calibration
kernel (plain Python objects, dicts and strings -- the kind of work the
program does, none of the program's code), each block mean is divided
by the mean of its two neighbours, and a timing metric is the **median
over the rounds of those ratios**, scaled by ``KERNEL_REFERENCE_S`` so
it still reads as a time: *the time the op takes on a host that runs
the kernel in 10 ms*.  A change to the program moves the numerator
only.  The raw, un-normalised block times are printed beside every
metric.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, Sequence

clock = time.perf_counter

#: What the kernel is taken to cost on the reference host (about what it
#: does cost on the build machine in its fast state).
KERNEL_REFERENCE_S = 0.010


class _Cell:
    __slots__ = ("number", "text")

    def __init__(self, number: int) -> None:
        self.number = number
        self.text = str(number)


class Kernel:
    """The calibration kernel: attribute reads, dict stores and lookups
    keyed by strings, small-int arithmetic; allocates one dict a pass."""

    PASSES = 40

    def __init__(self) -> None:
        self.cells = [_Cell(i) for i in range(2_000)]

    def run(self) -> float:
        """One block of the kernel; returns its seconds."""
        cells = self.cells
        t0 = clock()
        for _ in range(self.PASSES):
            table: Dict[str, int] = {}
            total = 0
            for cell in cells:
                table[cell.text] = cell.number
                total += len(cell.text) + table[cell.text]
            for cell in cells:
                total += table.get(cell.text, 0)
        return clock() - t0


class Normalised:
    """Times one thing between two kernel runs; the kernel run that
    closes one measurement opens the next when they are back to back."""

    def __init__(self) -> None:
        self.kernel = Kernel()
        self._last = self.kernel.run()

    def fresh(self) -> None:
        """Re-run the opening kernel (after untimed work in between)."""
        self._last = self.kernel.run()

    def measure(self, block: Callable[[], object], collect: bool = True):
        """Returns ``(raw seconds, normalised seconds, result)``;
        collects garbage first unless told not to (GC stays enabled
        either way)."""
        before = self._last
        if collect:
            gc.collect()
        t0 = clock()
        result = block()
        raw = clock() - t0
        self._last = after = self.kernel.run()
        speed = KERNEL_REFERENCE_S / ((before + after) / 2)
        return raw, raw * speed, result


def fastest_quarter(samples: Sequence[float]) -> float:
    """Mean of the fastest quarter of ``samples`` (at least one)."""
    keep = max(1, len(samples) // 4)
    return sum(sorted(samples)[:keep]) / keep


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def high_percentile(samples: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return {"p": 50.0, "value": median(ordered), "samples": n}
    index = n - 11
    return {"p": round(100.0 * (index + 1) / n, 3),
            "value": ordered[index], "samples": n}
