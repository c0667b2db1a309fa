"""Host speed: a fixed reference computation timed beside the program.

The benchmark runs on a share of a machine whose speed drifts with the
other tenants' load: the same code takes 1.3-1.9x longer for tens of
seconds at a time, which no averaging within one run removes. So every
run interleaves its timed samples with timings of a fixed *reference*
computation — batched LAPACK eigensolves at two matrix sizes and a plain
interpreter loop, in equal parts, on fixed data and independent of the
program's code — and the benchmark reports its times in
**reference-host seconds**::

    raw seconds × NOMINAL_S / reference unit time around the sample

that is, the time the sample would have taken with the host running at
the speed where one reference unit takes ``NOMINAL_S``. A faster program
lowers it in proportion; a slower host does not. Through slow spells on
a 2-core container, 20 s medians of HAQJSK Grams and of an SVM
cross-validation spread 0.16-0.32 (quartile distance over median) raw
and 0.07-0.11 divided by this reference; mixes with small numpy calls
or streaming vector arithmetic tracked the program worse. The raw
seconds and the reference times are kept in the report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one reference unit takes on the host the benchmark was tuned
#: on (2-core x86-64 Xeon container, Python 3.11, numpy 2.4, OpenBLAS on
#: one thread) when no other tenant slows it down.
NOMINAL_S = 0.020

_RNG = np.random.default_rng(20251016)
_SMALL = _RNG.standard_normal((16, 96, 96))
_SMALL = _SMALL + _SMALL.transpose(0, 2, 1)
_LARGE = _RNG.standard_normal((2, 256, 256))
_LARGE = _LARGE + _LARGE.transpose(0, 2, 1)


def _reference_unit() -> float:
    """One unit of the reference mix (about a third each: two eigensolve
    batches and the interpreter loop); returns a checksum so no part of
    it can be skipped."""
    total = float(np.linalg.eigvalsh(_SMALL).sum() + np.linalg.eigvalsh(_LARGE).sum())
    counts: dict = {}
    acc = 0
    for i in range(40_000):
        key = (i * 7919) & 511
        counts[key] = counts.get(key, 0) + 1
        acc ^= counts[key] * i
    return total + acc


def reference_times(units: int) -> "list[float]":
    """Seconds each of ``units`` consecutive reference units took."""
    times = []
    for _ in range(units):
        start = time.perf_counter()
        _reference_unit()
        times.append(time.perf_counter() - start)
    return times


class Calibrator:
    """Reference timings interleaved with a run's samples.

    Call :meth:`mark` before the first sample and after each one (never
    while one is running); a mark times ``units`` reference units and
    reads as their median, so a burst that slows a few units does not
    move it. Raw seconds × :meth:`factor` over the marks around a sample
    are that sample in reference-host seconds.
    """

    def __init__(self, units: int = 10) -> None:
        self.units = units
        #: Each mark's reference unit times, in order.
        self.marks: "list[list[float]]" = []

    def mark(self) -> int:
        """Time the reference; returns the mark's index."""
        self.marks.append(reference_times(self.units))
        return len(self.marks) - 1

    def factor(self, first: int = 0) -> float:
        """``NOMINAL_S`` over the mean reading of marks ``first`` to the
        latest (all marks by default)."""
        readings = [statistics.median(times) for times in self.marks[first:]]
        return NOMINAL_S / statistics.fmean(readings)
