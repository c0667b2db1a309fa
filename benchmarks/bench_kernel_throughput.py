"""Kernel-throughput benchmarks — Gram-matrix wall-clock per kernel.

Backs the Section III-D complexity discussion with concrete timings: every
Table IV kernel computes the Gram matrix of the same probe collection,
and the engine benches measure the pair-evaluation stage — the ``O(N^2)``
factor the Gram backends (:mod:`repro.engine`) control — per backend,
recording the speedup over the serial reference in ``extra_info``. These
are the only benches that use multiple rounds (the payloads are
sub-second).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.backend.policy import pair_stage_workers
from repro.datasets import load_dataset
from repro.engine import resolve_engine
from repro.experiments.config import TABLE4_KERNELS
from repro.kernels.registry import lenient_spec

#: Backends the engine benches compare (serial is the reference).
ENGINE_BACKENDS = ("serial", "batched", "process")

#: Pairwise kernels with a vectorized block path worth tracking over time.
ENGINE_KERNELS = ("HAQJSK(A)", "HAQJSK(D)", "QJSK", "JTQK")


@pytest.fixture(scope="module")
def probe_graphs():
    dataset = load_dataset("MUTAG", scale=0.15, seed=0)
    return dataset.graphs


@pytest.fixture(scope="module")
def engine_probe_graphs():
    """A larger MUTAG probe: the pair stage needs N^2 to be visible."""
    dataset = load_dataset("MUTAG", scale=0.5, seed=0)
    return dataset.graphs


@pytest.fixture(scope="module")
def _engine_bench_state():
    """Shared per-kernel cache: prepared states and the serial wall-clock."""
    return {}


@pytest.mark.parametrize("name", TABLE4_KERNELS)
def test_bench_gram_throughput(name, probe_graphs, benchmark):
    kernel = lenient_spec(name, n_prototypes=16, seed=0).make()
    gram = benchmark.pedantic(
        kernel.gram, args=(probe_graphs,), kwargs={"normalize": True},
        rounds=3, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["gram_engine"] = ExecutionContext().resolved_engine().name
    benchmark.extra_info["pair_stage_workers"] = pair_stage_workers()
    assert gram.shape == (len(probe_graphs), len(probe_graphs))


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
@pytest.mark.parametrize("name", ENGINE_KERNELS)
def test_bench_engine_backends(
    name, backend, engine_probe_graphs, _engine_bench_state, benchmark
):
    """Pair-evaluation stage per backend, with speedup ratios over serial.

    The collection is prepared once per kernel (preparation is
    backend-independent by construction) and each backend computes the
    full Gram from the shared states. ``extra_info`` records the
    backend's wall-clock and its speedup over the serial reference, so
    ``BENCH_*.json`` tracks the engine win over time; equivalence to the
    serial Gram is asserted at the engine test suite's 1e-10 tolerance.
    """
    if name not in _engine_bench_state:
        kernel = lenient_spec(name, n_prototypes=16, seed=0).make()
        states = kernel.prepare(engine_probe_graphs)
        serial = resolve_engine("serial")
        started = time.perf_counter()
        reference = serial.gram(kernel, states)
        serial_seconds = time.perf_counter() - started
        _engine_bench_state[name] = (kernel, states, reference, serial_seconds)
    kernel, states, reference, serial_seconds = _engine_bench_state[name]

    engine = resolve_engine(backend)
    gram = benchmark.pedantic(
        engine.gram, args=(kernel, states), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info.update(
        {
            "backend": backend,
            # Process workers and the serial loop solve on one thread each.
            "pair_stage_workers": pair_stage_workers() if backend == "batched" else 1,
            "n_graphs": len(engine_probe_graphs),
            "serial_seconds": round(serial_seconds, 4),
        }
    )
    # Stats are absent under --benchmark-disable (the CI smoke run).
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is not None:
        speedup = serial_seconds / max(stats.mean, 1e-12)
        benchmark.extra_info["speedup_vs_serial"] = round(speedup, 2)
    assert np.allclose(gram, reference, atol=1e-10, rtol=0.0)


def test_bench_nystrom_speedup(benchmark):
    """Nyström (m = N/4 landmarks) vs the exact N² Gram on HAQJSK(D).

    The saving targets the quadratic pair-evaluation stage that dominates
    Section III-D's O(N²n³); extra_info records both wall-clocks and the
    relative Frobenius error of the approximation.
    """
    import time

    import numpy as np

    from repro.ml.nystrom import nystrom_gram

    dataset = load_dataset("MUTAG", scale=0.35, seed=0)
    graphs = dataset.graphs
    kernel = lenient_spec("HAQJSK(D)", n_prototypes=16, seed=0).make()

    start = time.perf_counter()
    exact = kernel.gram(graphs)
    exact_seconds = time.perf_counter() - start

    def run():
        return nystrom_gram(
            kernel, graphs, n_landmarks=max(len(graphs) // 4, 2), seed=0
        )

    approx = benchmark.pedantic(run, rounds=2, iterations=1)
    error = float(
        np.linalg.norm(approx - exact) / np.linalg.norm(exact)
    )
    benchmark.extra_info.update(
        {
            "exact_gram_seconds": round(exact_seconds, 3),
            "relative_frobenius_error": round(error, 4),
            "n_graphs": len(graphs),
        }
    )
    assert error < 0.25
