"""Ablation benches for the design choices DESIGN.md calls out.

Not a paper table — these justify the reproduction's documented decisions:

* Hamiltonian operator (paper: Laplacian) vs adjacency;
* aligned-density trace renormalisation (our Eq. 21 fix) on/off;
* prototype-indexing consistency across the Eq. 23/25 average over k;
* hierarchy depth H (paper: 5) — does the hierarchy actually help?
* DB entropy flavour (Shannon per ref. [26] vs von Neumann);
* level-1 prototype count M (paper: 256 at full scale);
* pre-SVM Gram conditioning (centering + trace rescale; kernel_utils);
* the attributed extension (Section V future work) vs the plain kernels
  on a labelled dataset.

Each bench reports MUTAG accuracy for both settings in ``extra_info``;
assertions only guard against catastrophic regressions, since individual
choices shift accuracy by single points.
"""

from __future__ import annotations

import pytest

from repro.datasets import load_dataset
from repro.kernels import (
    HAQJSKAttributedD,
    HAQJSKKernelA,
    HAQJSKKernelD,
)
from repro.ml import condition_gram, cross_validate_kernel


def _accuracy(kernel, dataset, seed=0, *, condition: bool = True) -> float:
    gram = kernel.gram(dataset.graphs, normalize=True)
    if condition:
        gram = condition_gram(gram)
    result = cross_validate_kernel(
        gram, dataset.targets, n_folds=10, n_repeats=2, seed=seed
    )
    return result.mean_accuracy * 100.0


@pytest.fixture(scope="module")
def mutag():
    return load_dataset("MUTAG", scale=0.4, seed=0)


def test_bench_ablation_hamiltonian(mutag, benchmark):
    def run():
        return {
            kind: _accuracy(
                HAQJSKKernelA(
                    n_prototypes=32, n_levels=3, max_layers=6,
                    hamiltonian=kind, seed=0,
                ),
                mutag,
            )
            for kind in ("laplacian", "adjacency")
        }

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(scores)
    assert scores["laplacian"] > 55.0  # the paper's choice must stay usable


def test_bench_ablation_density_renormalisation(mutag, benchmark):
    def run():
        return {
            f"renormalize={flag}": _accuracy(
                HAQJSKKernelD(
                    n_prototypes=32, n_levels=3, max_layers=6,
                    renormalize_density=flag, seed=0,
                ),
                mutag,
            )
            for flag in (True, False)
        }

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(scores)
    assert scores["renormalize=True"] > 55.0


def test_bench_ablation_consistent_prototypes(mutag, benchmark):
    def run():
        return {
            f"consistent={flag}": _accuracy(
                HAQJSKKernelD(
                    n_prototypes=32, n_levels=3, max_layers=6,
                    consistent_across_k=flag, seed=0,
                ),
                mutag,
            )
            for flag in (True, False)
        }

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(scores)
    assert scores["consistent=True"] > 55.0


def test_bench_ablation_hierarchy_depth(mutag, benchmark):
    def run():
        return {
            f"H={depth}": _accuracy(
                HAQJSKKernelD(
                    n_prototypes=32, n_levels=depth, max_layers=6, seed=0
                ),
                mutag,
            )
            for depth in (1, 3, 5)
        }

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(scores)
    # The hierarchy is the paper's central mechanism: depth > 1 must not be
    # catastrophically worse than flat alignment.
    assert scores["H=5"] >= scores["H=1"] - 10.0


def test_bench_ablation_entropy_kind(mutag, benchmark):
    def run():
        return {
            kind: _accuracy(
                HAQJSKKernelD(
                    n_prototypes=32, n_levels=3, max_layers=6,
                    entropy=kind, seed=0,
                ),
                mutag,
            )
            for kind in ("shannon", "von_neumann")
        }

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(scores)
    assert scores["shannon"] > 55.0


def test_bench_ablation_prototype_count(mutag, benchmark):
    def run():
        return {
            f"M={count}": _accuracy(
                HAQJSKKernelD(
                    n_prototypes=count, n_levels=3, max_layers=6, seed=0
                ),
                mutag,
            )
            for count in (8, 32, 64)
        }

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(scores)
    assert scores["M=32"] > 55.0


def test_bench_ablation_gram_conditioning(mutag, benchmark):
    """Justifies the kernel_utils conditioning step in the CV protocol."""

    def run():
        kernel = HAQJSKKernelD(
            n_prototypes=32, n_levels=3, max_layers=6, seed=0
        )
        return {
            f"condition={flag}": _accuracy(kernel, mutag, condition=flag)
            for flag in (True, False)
        }

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(scores)
    # Conditioning must never hurt badly; on compressed Gram matrices it
    # is the difference between chance and signal (the repro.ml.kernel_utils
    # module docstring explains why).
    assert scores["condition=True"] >= scores["condition=False"] - 5.0


def test_bench_ablation_attributed_labels(mutag, benchmark):
    """Section V future work: do vertex labels help on a labelled set?"""

    def run():
        plain = HAQJSKKernelD(
            n_prototypes=32, n_levels=3, max_layers=6, seed=0
        )
        attributed = HAQJSKAttributedD(
            n_prototypes=32, n_levels=3, max_layers=6, seed=0
        )
        return {
            "plain": _accuracy(plain, mutag),
            "attributed": _accuracy(attributed, mutag),
        }

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(scores)
    assert scores["attributed"] > 55.0
