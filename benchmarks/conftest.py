"""Shared benchmark configuration.

Every benchmark runs its workload exactly once (``pedantic`` with one
round): the payloads are full experiment cells, not microseconds-scale
functions, and the numbers of interest (accuracies, property measurements)
are attached to ``benchmark.extra_info`` so they land in the report.

Set ``REPRO_FULL_SCALE=1`` to run the paper-scale protocol (hours).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    """Compute-policy axis for the throughput benches.

    ``--precision`` / ``--entropy`` select the
    :class:`repro.backend.ComputePolicy` the policy benches measure in
    addition to the float64/eig reference; ``--chebyshev-degree``
    overrides the approximation degree. Example::

        pytest benchmarks/bench_kernel_throughput.py --precision float32
    """
    group = parser.getgroup("repro compute policy")
    group.addoption(
        "--precision",
        action="store",
        default="float32",
        help="device precision to benchmark (float64/float32)",
    )
    group.addoption(
        "--entropy",
        action="store",
        default="auto",
        help="entropy path for the requested-policy row (eig/chebyshev/"
        "auto); 'auto' routes large stacks eigenvalue-free at float32 "
        "(the float32 fast path)",
    )
    group.addoption(
        "--chebyshev-degree",
        action="store",
        type=int,
        default=None,
        help="Chebyshev interpolation degree for the eig-free entropy row",
    )


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
