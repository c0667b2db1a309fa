"""Host-factor arithmetic on planted reference timings (no timing runs)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostspeed  # noqa: E402


def test_a_mark_reads_as_its_median_and_factor_averages_the_marks():
    nominal = hostspeed.NOMINAL_S
    calibrator = hostspeed.Calibrator(units=3)
    # Each mark: one unit hit by a burst, which the median ignores.
    calibrator.marks = [
        [nominal, nominal, 9 * nominal],
        [2 * nominal, 2 * nominal, 0.1 * nominal],
        [2 * nominal, 7 * nominal, 2 * nominal],
    ]
    assert calibrator.factor() == pytest.approx(1.0 / ((1 + 2 + 2) / 3))
    # A sample between marks 1 and 2 ran on a host at half speed.
    assert calibrator.factor(1) == pytest.approx(0.5)


def test_mark_times_the_reference_and_returns_its_index():
    calibrator = hostspeed.Calibrator(units=2)
    assert calibrator.mark() == 0
    assert calibrator.mark() == 1
    assert [len(times) for times in calibrator.marks] == [2, 2]
    assert all(seconds > 0 for times in calibrator.marks for seconds in times)
