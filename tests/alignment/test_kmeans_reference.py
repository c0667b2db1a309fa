"""``kmeans`` and ``cluster_means`` against the boolean-mask reference loop.

The library's Lloyd loop computes the same operations in the same order
as the reference, so every fit must match it byte for byte. The inputs
cover the cases where the summation differs by shape (d = 1 means reduce
pairwise, d >= 2 row by row), duplicate rows with more clusters than
distinct rows (empty-cluster re-seeding), warm starts with fewer and more
rows than clusters, and a fit stopped by ``max_iter``. At Gram level,
HAQJSK(D) with both references patched in (this loop and the per-source
BFS in ``tests/graphs/bfs_reference.py``) must give the same bytes as the
default path.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.haqjsk as haqjsk
from kmeans_reference import reference_cluster_means, reference_kmeans
from repro.alignment import prototypes
from repro.alignment.kmeans import cluster_means, kmeans
from repro.datasets import load_dataset
from repro.graphs.graph import Graph
from repro.kernels import HAQJSKKernelD

BFS_REFERENCE = Path(__file__).resolve().parents[1] / "graphs" / "bfs_reference.py"


def assert_same_fit(result, expected):
    assert result.centers.dtype == expected.centers.dtype
    assert result.centers.shape == expected.centers.shape
    assert result.centers.tobytes() == expected.centers.tobytes()
    assert result.assignments.dtype == expected.assignments.dtype
    assert result.assignments.tobytes() == expected.assignments.tobytes()
    assert np.float64(result.inertia).tobytes() == np.float64(expected.inertia).tobytes()
    assert result.n_iterations == expected.n_iterations
    assert result.converged is expected.converged


def _normal(n, d, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def _repeated(distinct, copies, d, seed=0):
    rows = np.random.default_rng(seed).integers(0, 5, size=(distinct, d))
    return np.repeat(rows.astype(float), copies, axis=0)


CASES = {
    "d1": (_normal(300, 1), 7, {}),
    "d1-repeated": (_repeated(4, 9, 1), 6, {}),
    "d2": (_normal(300, 2), 7, {}),
    "d5": (_normal(400, 5, seed=1), 12, {}),
    "repeated-more-clusters-than-rows": (_repeated(3, 5, 2), 8, {}),
    "repeated-as-many-clusters-as-points": (_repeated(3, 4, 3), 12, {}),
    "warm-fewer-rows": (_normal(200, 3), 6, {"init_centers": _normal(2, 3, seed=5)}),
    "warm-more-rows": (_normal(200, 3), 6, {"init_centers": _normal(9, 3, seed=6)}),
    "warm-d1-fewer-rows": (_normal(150, 1), 5, {"init_centers": _normal(3, 1, seed=7)}),
    "capped": (_normal(600, 4, seed=2), 24, {"max_iter": 3}),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_matches_reference(name, seed):
    points, n_clusters, kwargs = CASES[name]
    expected = reference_kmeans(points, n_clusters, seed=seed, **kwargs)
    assert_same_fit(kmeans(points, n_clusters, seed=seed, **kwargs), expected)


def test_capped_case_hits_the_cap():
    points, n_clusters, kwargs = CASES["capped"]
    expected = reference_kmeans(points, n_clusters, seed=0, **kwargs)
    assert expected.n_iterations == kwargs["max_iter"]
    assert not expected.converged


def test_repeated_case_leaves_a_cluster_empty():
    points, n_clusters, kwargs = CASES["repeated-more-clusters-than-rows"]
    expected = reference_kmeans(points, n_clusters, seed=0, **kwargs)
    assert np.bincount(expected.assignments, minlength=n_clusters).min() == 0


@settings(max_examples=60, deadline=None)
@given(
    n_points=st.integers(1, 60),
    dim=st.integers(1, 4),
    n_clusters=st.integers(1, 12),
    levels=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_integer_points_match_reference(n_points, dim, n_clusters, levels, seed):
    # Few distinct integer values: many repeated rows and re-seeded clusters.
    points = np.random.default_rng(seed).integers(0, levels, size=(n_points, dim))
    expected = reference_kmeans(points, n_clusters, seed=seed)
    assert_same_fit(kmeans(points, n_clusters, seed=seed), expected)


@pytest.mark.parametrize("shape", [(50,), (50, 1), (50, 3)])
def test_cluster_means_match_reference(shape):
    rng = np.random.default_rng(3)
    points = rng.normal(size=shape)
    assignments = rng.integers(0, 9, size=shape[0])
    assignments[assignments == 4] = 5  # cluster 4 stays empty
    initial = rng.normal(size=(9,) + shape[1:])
    expected = reference_cluster_means(points, assignments, initial)
    assert cluster_means(points, assignments, initial).tobytes() == expected.tobytes()


def _reference_bfs():
    spec = importlib.util.spec_from_file_location("bfs_reference", BFS_REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_shortest_path_lengths


def test_haqjsk_gram_matches_references(monkeypatch):
    dataset = load_dataset("PPIs", scale=0.05, size_scale=0.5, seed=0)

    def gram():
        graphs = [Graph(g.adjacency, labels=g.labels) for g in dataset.graphs]
        kernel = HAQJSKKernelD(n_prototypes=16, n_levels=3, seed=0)
        return kernel.gram(graphs, normalize=True)

    default = gram()
    monkeypatch.setattr(Graph, "shortest_path_lengths", _reference_bfs())
    monkeypatch.setattr(prototypes, "kmeans", reference_kmeans)
    monkeypatch.setattr(haqjsk, "cluster_means", reference_cluster_means)
    assert gram().tobytes() == default.tobytes()
