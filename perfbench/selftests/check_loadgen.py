"""Open-loop accounting, run on a virtual-time event loop (no sleeping)."""

from __future__ import annotations

import asyncio
import selectors
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import loadgen  # noqa: E402


class _JumpingSelector(selectors.DefaultSelector):
    """Never blocks: when nothing is ready it advances the loop's virtual
    clock by the time the loop meant to wait."""

    def __init__(self, loop) -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        events = super().select(0)
        if not events:
            if timeout is None:
                raise RuntimeError("virtual clock: nothing is scheduled")
            self._loop.now += timeout
        return events


class VirtualClockLoop(asyncio.SelectorEventLoop):
    def __init__(self) -> None:
        self.now = 0.0
        super().__init__(selector=_JumpingSelector(self))

    def time(self) -> float:
        return self.now


def run_virtual(coroutine):
    loop = VirtualClockLoop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def test_latency_runs_from_the_due_time_and_includes_connection_wait():
    schedule = [loadgen.Due(0, 0.000, 0), loadgen.Due(1, 0.010, 0),
                loadgen.Due(2, 0.020, 0), loadgen.Due(3, 0.100, 0)]

    async def send(connection, record):
        await asyncio.sleep(0.025)
        return 200, {"labels": []}

    records = run_virtual(loadgen.drive(schedule, send, connections=1))
    assert [r.sent for r in records] == pytest.approx([0.0, 0.025, 0.050, 0.100])
    assert [r.latency for r in records] == pytest.approx([0.025, 0.040, 0.055, 0.025])
    assert [r.lateness for r in records] == pytest.approx([0.0, 0.0, 0.0, 0.0])
    assert all(r.status == 200 for r in records)


def test_a_busy_generator_shows_as_lateness_and_failures_are_recorded():
    schedule = [loadgen.Due(0, 0.0, 0), loadgen.Due(1, 0.010, 0),
                loadgen.Due(2, 0.012, 0)]

    async def send(connection, record):
        if record.rid == 0:
            # Work on the generator's own thread holds up its schedule.
            asyncio.get_running_loop().now += 0.030
        await asyncio.sleep(0.005)
        if record.rid == 2:
            raise ConnectionResetError("peer went away")
        return 200, None

    records = run_virtual(loadgen.drive(schedule, send, connections=2))
    assert [r.lateness for r in records] == pytest.approx([0.0, 0.020, 0.018])
    assert [r.latency for r in records] == pytest.approx([0.035, 0.025, 0.028])
    assert [r.status for r in records] == [200, 200, 0]
    assert records[2].error == "ConnectionResetError: peer went away"


def test_poisson_schedule_is_seeded_and_offers_its_rate():
    one = loadgen.poisson_schedule(np.random.default_rng(7), rate=8.0, count=4000,
                                   templates=5)
    two = loadgen.poisson_schedule(np.random.default_rng(7), rate=8.0, count=4000,
                                   templates=5)
    assert one == two
    assert 7.6 < (len(one) - 1) / one[-1].due < 8.4
    assert {item.template for item in one} == set(range(5))
    burst = loadgen.poisson_schedule(np.random.default_rng(7), rate=float("inf"),
                                     count=3, templates=1)
    assert [item.due for item in burst] == [0.0, 0.0, 0.0]


def test_templates_are_dealt_evenly():
    schedule = loadgen.poisson_schedule(np.random.default_rng(3), rate=8.0, count=50,
                                        templates=12)
    counts = np.bincount([item.template for item in schedule], minlength=12)
    assert counts.max() - counts.min() <= 1


def test_split_segments_restart_at_zero_and_stretch_scales_due_times():
    schedule = [loadgen.Due(rid, due, 0) for rid, due in enumerate([0.0, 0.5, 1.0, 1.25, 2.0])]
    segments = loadgen.split(schedule, 2)
    assert [[item.rid for item in part] for part in segments] == [[0, 1, 2], [3, 4]]
    assert [[item.due for item in part] for part in segments] == [[0.0, 0.5, 1.0], [0.0, 0.75]]
    assert [item.due for item in loadgen.stretched(segments[1], 2.0)] == [0.0, 1.5]


def test_percentiles_and_the_supported_tail():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == pytest.approx(50.5)
    assert loadgen.percentile(values, 95) == pytest.approx(95.05)
    assert loadgen.percentile([], 95) == 0.0
    assert loadgen.tail_percentile(240) == 95
    assert loadgen.tail_percentile(200) == 95
    assert loadgen.tail_percentile(100) == 90
    assert loadgen.tail_percentile(9) is None
