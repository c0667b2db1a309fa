"""Incremental-Gram benchmarks — extend cost scales O(N·ΔN), not O((N+ΔN)²).

The serving scenario behind :meth:`GraphKernel.gram_extend`: a reference
collection of ``N`` graphs with a cached Gram, and ``ΔN`` newcomers
arriving. A from-scratch recompute evaluates ``(N+ΔN)(N+ΔN+1)/2`` pairs;
the extension evaluates only the ``N·ΔN`` cross pairs plus the
``ΔN(ΔN+1)/2`` new diagonal pairs. Two demonstrations:

* an *exact pair budget* check — a counting kernel run through the serial
  backend proves the extension path evaluates precisely the predicted
  pair count (this is the scaling claim, independent of timer noise);
* wall-clock benches per kernel (QJSK, JTQK, frozen-prototype
  HAQJSK(D)) recording the measured extend/full speedup and the
  theoretical pair-budget ratio in ``extra_info``.

Every bench also asserts the extended Gram agrees with the from-scratch
matrix to 1e-10, so running the file under ``--benchmark-disable`` (CI)
doubles as a correctness smoke test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.datasets import load_dataset
from repro.kernels import HAQJSKKernelD, JensenTsallisQKernel, QJSKUnaligned

#: Agreement tolerance pinned by the ISSUE acceptance criteria.
ATOL = 1e-10

#: Newcomers per arrival batch (ΔN).
DELTA = 8

#: The serial backend: the counting kernel counts ``pair_value`` calls.
SERIAL = ExecutionContext(engine="serial")


def _pair_budget(n_old: int, n_new: int) -> dict:
    """Predicted pair evaluations for extend vs from-scratch recompute."""
    total = n_old + n_new
    return {
        "extend_pairs": n_old * n_new + n_new * (n_new + 1) // 2,
        "full_pairs": total * (total + 1) // 2,
    }


@pytest.fixture(scope="module")
def reference_graphs():
    dataset = load_dataset("MUTAG", scale=0.25, seed=0)
    return dataset.graphs


@pytest.fixture(scope="module")
def newcomer_graphs():
    # A different seed yields genuinely unseen arrivals; the stratified
    # subsample keeps both classes represented instead of whichever
    # happens to be stored first.
    dataset = load_dataset("MUTAG", scale=0.08, seed=7)
    return dataset.subsample(DELTA, seed=7).graphs


def _kernels(reference):
    """The bench roster; the HAQJSK entry is frozen on the reference set."""
    frozen = HAQJSKKernelD(n_prototypes=16, n_levels=2, max_layers=4, seed=0)
    frozen.freeze(reference)
    return {
        "QJSK": QJSKUnaligned(),
        "JTQK": JensenTsallisQKernel(n_iterations=3),
        "HAQJSK(D)-frozen": frozen,
    }


class _CountingQJSK(QJSKUnaligned):
    """QJSK that counts its pair evaluations (serial backend only)."""

    def __init__(self):
        super().__init__()
        self.pair_calls = 0

    def pair_value(self, state_a, state_b) -> float:
        self.pair_calls += 1
        return super().pair_value(state_a, state_b)


def test_extend_pair_budget_is_n_times_delta(reference_graphs, newcomer_graphs):
    """The scaling claim, exactly: extend evaluates N·ΔN + ΔN(ΔN+1)/2 pairs."""
    kernel = _CountingQJSK()
    cached = kernel.gram(reference_graphs, ctx=SERIAL)
    n_old, n_new = len(reference_graphs), len(newcomer_graphs)
    budget = _pair_budget(n_old, n_new)
    assert kernel.pair_calls == n_old * (n_old + 1) // 2

    kernel.pair_calls = 0
    extended = kernel.gram_extend(
        cached, reference_graphs, newcomer_graphs, ctx=SERIAL
    )
    assert kernel.pair_calls == budget["extend_pairs"]
    assert kernel.pair_calls < budget["full_pairs"]

    kernel.pair_calls = 0
    full = kernel.gram(
        list(reference_graphs) + list(newcomer_graphs), ctx=SERIAL
    )
    assert kernel.pair_calls == budget["full_pairs"]
    assert np.allclose(extended, full, atol=ATOL, rtol=0.0)


def test_extend_budget_grows_linearly_in_n(reference_graphs, newcomer_graphs):
    """Doubling N doubles the extend budget but quadruples the full one."""
    half = len(reference_graphs) // 2
    small, large = reference_graphs[:half], reference_graphs[: 2 * half]
    kernel = _CountingQJSK()

    def extend_cost(reference):
        kernel.pair_calls = 0
        cached = kernel.gram(reference, ctx=SERIAL)
        kernel.pair_calls = 0
        kernel.gram_extend(cached, reference, newcomer_graphs, ctx=SERIAL)
        return kernel.pair_calls

    cost_small, cost_large = extend_cost(small), extend_cost(large)
    # Linear in N: the ΔN-only diagonal term is the constant offset.
    diagonal = DELTA * (DELTA + 1) // 2
    assert cost_large - diagonal == 2 * (cost_small - diagonal)


@pytest.mark.parametrize("name", ["QJSK", "JTQK", "HAQJSK(D)-frozen"])
def test_bench_gram_extend(name, reference_graphs, newcomer_graphs, benchmark):
    kernel = _kernels(reference_graphs)[name]
    cached = kernel.gram(reference_graphs)
    extended = benchmark.pedantic(
        kernel.gram_extend,
        args=(cached, reference_graphs, newcomer_graphs),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    full = kernel.gram(list(reference_graphs) + list(newcomer_graphs))
    assert np.allclose(extended, full, atol=ATOL, rtol=0.0), name
    budget = _pair_budget(len(reference_graphs), len(newcomer_graphs))
    benchmark.extra_info.update(budget)
    benchmark.extra_info["pair_budget_ratio"] = (
        budget["full_pairs"] / budget["extend_pairs"]
    )


@pytest.mark.parametrize("name", ["QJSK", "JTQK", "HAQJSK(D)-frozen"])
def test_bench_full_recompute(name, reference_graphs, newcomer_graphs, benchmark):
    """The baseline the extension path is saving over."""
    kernel = _kernels(reference_graphs)[name]
    combined = list(reference_graphs) + list(newcomer_graphs)
    gram = benchmark.pedantic(
        kernel.gram, args=(combined,), rounds=3, iterations=1, warmup_rounds=1
    )
    assert gram.shape == (len(combined), len(combined))


def test_bench_warm_restart_from_store(
    reference_graphs, newcomer_graphs, tmp_path, benchmark
):
    """Serving restart: the reference Gram reloads from disk, not recomputed."""
    from repro.store import ArtifactStore, IncrementalGram

    store = ArtifactStore(str(tmp_path / "store"))
    kernel = QJSKUnaligned()
    first = IncrementalGram(kernel, reference_graphs, ctx=ExecutionContext(store=store))
    first.extend(newcomer_graphs)

    def restart():
        # A fresh process over the same reference set: Gram comes from disk.
        return IncrementalGram(
            QJSKUnaligned(), reference_graphs, ctx=ExecutionContext(store=store)
        )

    restarted = benchmark.pedantic(restart, rounds=3, iterations=1)
    assert np.allclose(
        restarted.gram,
        first.gram[: len(reference_graphs), : len(reference_graphs)],
        atol=ATOL,
        rtol=0.0,
    )
    grown = restarted.extend(newcomer_graphs)
    assert np.allclose(grown, first.gram, atol=ATOL, rtol=0.0)
