"""Shared benchmark configuration.

Every benchmark runs its workload exactly once (``pedantic`` with one
round): the payloads are full experiment cells, not microseconds-scale
functions, and the numbers of interest (accuracies, property measurements)
are attached to ``benchmark.extra_info`` so they land in the report.

Set ``REPRO_FULL_SCALE=1`` to run the paper-scale protocol (hours).
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )


@pytest.fixture
def once(benchmark):
    """Fixture wrapping :func:`run_once` with the active benchmark."""

    def runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return runner
