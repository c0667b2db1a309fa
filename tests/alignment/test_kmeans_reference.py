"""``kmeans`` and ``cluster_means`` against the boolean-mask reference loop.

The library's Lloyd loop recomputes only the distances its bounds cannot
settle, and computes those with the same operations in the same order as
the reference, so every fit must match it byte for byte. The inputs
cover the cases where the summation differs by shape (d = 1 means reduce
pairwise, d >= 2 row by row), a coordinate whose members are all -0.0
(every mean sums from +0.0, so it averages to +0.0), duplicate rows with more clusters than
distinct rows (empty-cluster re-seeding), warm starts with fewer and more
rows than clusters, and a fit stopped by ``max_iter``. The pruning adds
its own fragile cases: points far from the origin, where the rounding of
``(p² + c²) − 2·(x·c)`` dwarfs the gaps between distances; lone candidate
rows, which numpy multiplies on another path; clusters that empty after
pruning began; ties on a bisector; coincident centers; and the full
30-fit replay of HAQJSK(D)'s prototype system on the ``cell-ppis-p32``
collection. At Gram level, HAQJSK(D) with both references patched in
(this loop and the per-source BFS in ``tests/graphs/bfs_reference.py``)
must give the same bytes as the default path.
"""

import importlib
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
from repro.kernels import HAQJSKKernelD, make

# ``repro.alignment`` re-exports the function ``kmeans`` under the
# submodule's name, so attribute access would find the function.
kmeans_module = importlib.import_module("repro.alignment.kmeans")

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
    "negative-zero-column": (np.column_stack([_normal(200, 2), np.full(200, -0.0)]), 5, {}),
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


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("offset, spread", [(1e4, 1e-2), (1e6, 1.0)])
def test_far_offset_points_match_reference(offset, spread, dim, seed):
    # Squared norms ~1e8-1e12 against squared gaps ~1e-4-1: the rounding
    # of the expansion decides argmin, so a skip test without its
    # rounding slack keeps points the full pass would move.
    points = offset + np.random.default_rng(seed).normal(0.0, spread, (3000, dim))
    expected = reference_kmeans(points, 32, seed=seed)
    assert_same_fit(kmeans(points, 32, seed=seed), expected)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_candidate_rows_equal_full_product_rows(dim):
    rng = np.random.default_rng(dim)
    for trial in range(8):
        points = rng.normal(size=(700, dim)) * rng.uniform(0.1, 10.0) + rng.normal(size=dim)
        centers = points[rng.choice(700, 32, replace=False)] + rng.normal(size=(32, dim))
        points_sq = np.sum(points**2, axis=1)
        full = kmeans_module._pairwise_sq_dists(points, centers, points_sq)
        for size in (1, 2, 3, 17, 300):
            rows = np.sort(rng.choice(700, size, replace=False))
            recomputed = kmeans_module._rows_sq_dists(points, points_sq, centers, rows)
            assert recomputed.shape == (size, 32)
            assert recomputed.tobytes() == full[rows].tobytes(), (trial, size)


def test_ppis_cell_fits_replay_with_pruning(monkeypatch):
    """Every fit behind HAQJSK(D) on the ``cell-ppis-p32`` collection
    (PPIs at scale 0.5, 32 prototypes, 5 levels) equals the reference,
    and the bounds spare most of the distance rows."""
    graphs = load_dataset("PPIs", scale=0.5, seed=0).graphs
    fits = []

    def spying_kmeans(points, n_clusters, **kwargs):
        result = kmeans(points, n_clusters, **kwargs)
        fits.append((np.array(points), n_clusters, kwargs, result))
        return result

    rows = []
    pairwise = kmeans_module._pairwise_sq_dists

    def counting_pairwise(points, *args, **kwargs):
        rows.append(len(points))
        return pairwise(points, *args, **kwargs)

    monkeypatch.setattr(prototypes, "kmeans", spying_kmeans)
    monkeypatch.setattr(kmeans_module, "_pairwise_sq_dists", counting_pairwise)
    # freeze() fits the same prototype system prepare() fits, without the
    # aligned densities.
    make("HAQJSK(D)", n_prototypes=32, n_levels=5, seed=0).freeze(graphs)
    monkeypatch.setattr(kmeans_module, "_pairwise_sq_dists", pairwise)

    assert len(fits) == 30
    assert sum(result.n_iterations for *_, result in fits) == 606
    for points, n_clusters, kwargs, result in fits:
        assert_same_fit(result, reference_kmeans(points, n_clusters, **kwargs))
    # Unpruned, every iteration and the final inertia pass n rows.
    unpruned = sum(len(p) * (r.n_iterations + 1) for p, _, _, r in fits)
    assert sum(rows) < 0.4 * unpruned


def _assign_outcomes(monkeypatch):
    """Record what each pruned assignment step returned (``None`` when a
    cluster emptied and the full pass had to run)."""
    outcomes = []
    assign = kmeans_module._Bounds.assign

    def recording_assign(self, points, centers, assignments):
        result = assign(self, points, centers, assignments)
        outcomes.append(result)
        return result

    monkeypatch.setattr(kmeans_module._Bounds, "assign", recording_assign)
    return outcomes


def test_cluster_emptied_after_pruning_began(monkeypatch):
    # Iteration 1 gives cluster 1 the two middle points and moves centers
    # 0 and 2 to (3, 1.5) and (7, 1.5); in iteration 2 each middle point
    # is 1.5 from one of them and 2 from cluster 1's mean (5, 0).
    points = np.asarray(
        [[3.0, 1.5]] * 4 + [[3.0, 0.0], [7.0, 0.0]] + [[7.0, 1.5]] * 4
        + [[20.0, 20.0], [21.0, 20.0]]
    )
    warm = np.asarray([[3.0, 3.0], [5.0, 0.0], [7.0, 3.0], [20.0, 21.0]])
    outcomes = _assign_outcomes(monkeypatch)
    result = kmeans(points, 4, seed=0, init_centers=warm)
    assert outcomes and outcomes[0] is None
    assert_same_fit(result, reference_kmeans(points, 4, seed=0, init_centers=warm))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_points_on_a_bisector(monkeypatch, dim):
    # After iteration 1 the centers sit at 0 and 2 on the first axis, so
    # the points at 1 are equidistant from both: argmin keeps them on
    # the lower index, and the bounds must not decide the tie.
    first = np.asarray([-2.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    points = np.zeros((len(first), dim))
    points[:, 0] = first
    warm = np.zeros((2, dim))
    warm[:, 0] = [0.1, 2.5]
    outcomes = _assign_outcomes(monkeypatch)
    result = kmeans(points, 2, seed=0, init_centers=warm)
    assert outcomes and outcomes[0] is not None
    assert_same_fit(result, reference_kmeans(points, 2, seed=0, init_centers=warm))
    assert result.assignments.tolist() == [0, 0, 0, 0, 1, 1, 1]
    distances = kmeans_module._pairwise_sq_dists(points, result.centers)
    assert np.array_equal(distances[2:4, 0], distances[2:4, 1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coincident_warm_centers(seed):
    points = _normal(200, 2, seed=seed)
    warm = np.vstack([points[:3], points[:3], [[5.0, 5.0]]])
    expected = reference_kmeans(points, 7, seed=seed, init_centers=warm)
    assert_same_fit(kmeans(points, 7, seed=seed, init_centers=warm), expected)


@pytest.mark.parametrize("seed", [0, 1])
def test_single_iteration(seed):
    points = _normal(300, 3, seed=seed)
    expected = reference_kmeans(points, 9, seed=seed, max_iter=1)
    assert_same_fit(kmeans(points, 9, seed=seed, max_iter=1), expected)


@pytest.mark.parametrize("points", [[[0.5, -1.0]], [[0.5, -1.0], [2.0, 3.0]], [[1.0], [1.0]]])
@pytest.mark.parametrize("n_clusters", [1, 2])
def test_one_and_two_points(points, n_clusters):
    expected = reference_kmeans(points, n_clusters, seed=0)
    assert_same_fit(kmeans(points, n_clusters, seed=0), expected)
