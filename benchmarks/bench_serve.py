"""Serving-throughput benchmarks — graphs/second versus batch size.

The serving cost model (see :mod:`repro.serve.service`): a batch of ΔN
newcomers against a bundle of N training graphs costs the ``(ΔN, N)``
cross-block pair evaluations through whichever engine backend the service
is configured with, plus O(ΔN) preparation. These benches measure the end
-to-end ``PredictionService.predict`` wall-clock for a frozen HAQJSK(D)
bundle across the three backends and a sweep of batch sizes, recording
``graphs_per_second`` in ``extra_info`` so the serving headroom is
tracked over time like the engine speedups are.

Every bench also asserts the served labels equal the transductive
full-Gram protocol's labels, so the CI smoke run (``--benchmark-disable``)
doubles as an end-to-end correctness check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.datasets import load_dataset
from repro.kernels import HAQJSKKernelD
from repro.ml import KernelSVC, condition_gram
from repro.serve import PredictionService, train_bundle

#: Engine backends the serving rectangle can run on.
BACKENDS = ("serial", "batched", "process")

#: Newcomer batch sizes (ΔN) for the throughput sweep.
BATCH_SIZES = (1, 4, 16)

#: Fixed box constraint: throughput benches should not re-run C selection.
C = 10.0


@pytest.fixture(scope="module")
def training_set():
    return load_dataset("MUTAG", scale=0.25, seed=0)


@pytest.fixture(scope="module")
def bundle(training_set):
    kernel = HAQJSKKernelD(n_prototypes=16, n_levels=2, max_layers=4, seed=0)
    kernel.freeze(training_set.graphs)
    return train_bundle(kernel, training_set.graphs, training_set.targets, c=C)


@pytest.fixture(scope="module")
def newcomers():
    # A different seed yields genuinely unseen arrivals (both classes).
    return load_dataset("MUTAG", scale=0.15, seed=7).graphs


@pytest.fixture(scope="module")
def expected_labels(bundle, training_set, newcomers):
    """Transductive full-Gram protocol labels for every newcomer batch."""
    kernel = bundle.kernel
    everything = list(training_set.graphs) + list(newcomers)
    conditioned = condition_gram(kernel.gram(everything))
    n = len(training_set.graphs)
    train_idx = np.arange(n)
    model = KernelSVC(c=C).fit(
        conditioned[np.ix_(train_idx, train_idx)], training_set.targets
    )
    return model.predict(conditioned[np.ix_(np.arange(n, len(everything)), train_idx)])


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_bench_serve_throughput(
    backend, batch_size, bundle, newcomers, expected_labels, benchmark
):
    service = PredictionService(bundle, ctx=ExecutionContext(engine=backend))
    batch = newcomers[:batch_size]
    # Warm the service's prepared-training-state cache outside the timer:
    # a serving loop pays it once, not per batch.
    warm = service.predict(batch)
    result = benchmark.pedantic(
        service.predict, args=(batch,), rounds=3, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info.update(
        {
            "backend": backend,
            "batch_size": batch_size,
            "n_training_graphs": bundle.n_training_graphs,
        }
    )
    # Stats are absent under --benchmark-disable (the CI smoke run).
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is not None:
        benchmark.extra_info["graphs_per_second"] = round(
            batch_size / max(stats.mean, 1e-12), 2
        )
    assert np.array_equal(result.labels, warm.labels)
    assert np.array_equal(result.labels, expected_labels[:batch_size])


def test_bench_batched_serving_beats_serial(bundle, newcomers, benchmark):
    """The engine win carries through the serving wrapper: one batched
    full-batch predict, with the serial wall-clock recorded alongside."""
    import time

    batch = list(newcomers)
    serial_service = PredictionService(bundle, ctx=ExecutionContext(engine="serial"))
    serial_service.predict(batch[:1])  # warm states
    started = time.perf_counter()
    serial_result = serial_service.predict(batch)
    serial_seconds = time.perf_counter() - started

    batched_service = PredictionService(
        bundle, ctx=ExecutionContext(engine="batched")
    )
    batched_service.predict(batch[:1])
    result = benchmark.pedantic(
        batched_service.predict, args=(batch,), rounds=3, iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["batch_size"] = len(batch)
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is not None:
        benchmark.extra_info["speedup_vs_serial"] = round(
            serial_seconds / max(stats.mean, 1e-12), 2
        )
    assert np.array_equal(result.labels, serial_result.labels)
