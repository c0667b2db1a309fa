"""Tests for the from-scratch k-means."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlignmentError, ValidationError
from repro.alignment import correspondence_matrices, prototypes
from repro.alignment.kmeans import assign_to_centers, kmeans, kmeans_plusplus_init
from repro.graphs import generators as gen
from repro.kernels import HAQJSKKernelD


def blobs(seed: int = 0, per: int = 20):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.normal(center, 0.15, (per, 2)) for center in ((0, 0), (3, 0), (0, 3))]
    )


class TestKMeans:
    def test_recovers_blobs(self):
        points = blobs()
        result = kmeans(points, 3, seed=0)
        # Each blob should land in its own cluster.
        assignments = result.assignments
        groups = [set(assignments[i * 20 : (i + 1) * 20]) for i in range(3)]
        assert all(len(g) == 1 for g in groups)
        assert len(set.union(*groups)) == 3

    def test_deterministic(self):
        points = blobs(1)
        a = kmeans(points, 3, seed=42)
        b = kmeans(points, 3, seed=42)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.allclose(a.centers, b.centers)

    def test_inertia_decreases_with_more_clusters(self):
        points = blobs(2)
        loose = kmeans(points, 2, seed=0).inertia
        tight = kmeans(points, 6, seed=0).inertia
        assert tight < loose

    def test_clamps_clusters_to_points(self):
        points = np.asarray([[0.0, 0.0], [1.0, 1.0]])
        result = kmeans(points, 10, seed=0)
        assert result.centers.shape[0] == 2

    def test_empty_cluster_reseeding(self):
        # Duplicated points force potential empty clusters.
        points = np.vstack([np.zeros((5, 2)), np.ones((5, 2)), np.full((5, 2), 9.0)])
        result = kmeans(points, 3, seed=0)
        assert len(set(result.assignments.tolist())) == 3

    def test_single_point(self):
        result = kmeans(np.asarray([[2.0, 2.0]]), 1, seed=0)
        assert np.allclose(result.centers, [[2.0, 2.0]])
        assert result.inertia == pytest.approx(0.0)

    def test_warm_start_respected(self):
        points = blobs(3)
        warm = np.asarray([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        result = kmeans(points, 3, seed=0, init_centers=warm)
        assert result.converged
        # Warm start at the true centers converges immediately-ish.
        assert result.n_iterations <= 5

    def test_warm_start_wrong_dim_rejected(self):
        with pytest.raises(AlignmentError):
            kmeans(blobs(), 3, init_centers=np.zeros((3, 5)))

    def test_rejects_empty(self):
        with pytest.raises(AlignmentError):
            kmeans(np.zeros((0, 2)), 2)

    def test_rejects_nan(self):
        with pytest.raises(AlignmentError):
            kmeans(np.asarray([[np.nan, 0.0]]), 1)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, "loose"])
    def test_rejects_invalid_tol(self, tol):
        # NaN or a negative tol would switch off the center-movement stop.
        with pytest.raises(ValidationError, match="tol"):
            kmeans(blobs(), 3, tol=tol)

    def test_result_repr(self):
        result = kmeans(blobs(), 3, seed=0)
        assert "KMeansResult" in repr(result)


class TestRepeatedRows:
    """Re-seeding does not keep every cluster populated when rows repeat.

    Duplicates tie between equal centers (argmin keeps the lowest index),
    and a re-seed victim can be the last member of its own cluster. The fit
    must still be well formed, and HAQJSK(D)'s aligned density matrices
    must be exactly zero on the prototypes no vertex maps to: support
    compression (``repro.backend.support``) solves only the rest.
    """

    def test_fit_with_an_empty_cluster_is_well_formed(self):
        points = np.repeat([[0.0], [1.0], [2.0]], 5, axis=0)
        result = kmeans(points, 8, seed=0)
        assert result.centers.shape == (8, 1)
        assert np.all(np.isfinite(result.centers))
        # An empty cluster's center keeps its last value, a data row.
        assert all(np.any(np.all(points == c, axis=1)) for c in result.centers)
        counts = np.bincount(result.assignments, minlength=8)
        assert result.assignments.shape == (15,)
        assert result.assignments.max() < 8
        assert counts.min() == 0 and counts.sum() == 15
        residual = points - result.centers[result.assignments]
        assert result.inertia == pytest.approx(float(np.sum(residual**2)))
        assert 1 <= result.n_iterations <= 100

    def test_haqjsk_density_is_zero_on_unmapped_prototypes(self, monkeypatch):
        empty_clusters = []

        def spying_kmeans(points, n_clusters, **kwargs):
            result = kmeans(points, n_clusters, **kwargs)
            counts = np.bincount(result.assignments, minlength=len(result.centers))
            empty_clusters.append(int(np.sum(counts == 0)))
            return result

        monkeypatch.setattr(prototypes, "kmeans", spying_kmeans)
        # Vertex-transitive graphs: every vertex of a graph shares one row.
        graphs = [
            gen.cycle_graph(5), gen.cycle_graph(6), gen.cycle_graph(7),
            gen.complete_graph(4), gen.complete_graph(5), gen.star_graph(5),
        ]
        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=2, seed=0).freeze(graphs)
        assert max(empty_clusters) > 0
        system = kernel.aligner.frozen_
        mapped_by_collection = np.zeros(8, dtype=bool)
        for graph, (_, densities) in zip(graphs, kernel.prepare(graphs)):
            rows = kernel.aligner._quantized(system.extractor.transform(graph))
            for level, rho in enumerate(densities):
                mapped = np.zeros(rho.shape[0], dtype=bool)
                for k, hierarchy in enumerate(system.hierarchies, start=1):
                    c_levels = correspondence_matrices(rows[:, :k], hierarchy)
                    mapped |= c_levels[level].any(axis=0)
                assert np.all(rho[~mapped] == 0.0)
                assert np.all(rho[:, ~mapped] == 0.0)
                if level == 0:
                    mapped_by_collection |= mapped
        assert not mapped_by_collection.all()


class TestInit:
    def test_plusplus_centers_are_points(self):
        points = blobs(4)
        rng = np.random.default_rng(0)
        centers = kmeans_plusplus_init(points, 3, rng)
        for c in centers:
            assert any(np.allclose(c, p) for p in points)

    def test_plusplus_spreads_centers(self):
        points = blobs(5)
        rng = np.random.default_rng(1)
        centers = kmeans_plusplus_init(points, 3, rng)
        dists = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(dists) > 1.0  # one per blob

    def test_identical_points(self):
        points = np.zeros((5, 2))
        rng = np.random.default_rng(2)
        centers = kmeans_plusplus_init(points, 3, rng)
        assert centers.shape == (3, 2)


class TestAssign:
    def test_nearest(self):
        centers = np.asarray([[0.0, 0.0], [10.0, 0.0]])
        points = np.asarray([[1.0, 0.0], [9.0, 0.0]])
        assert assign_to_centers(points, centers).tolist() == [0, 1]

    def test_rejects_dim_mismatch(self):
        with pytest.raises(AlignmentError):
            assign_to_centers(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_rejects_no_centers(self):
        with pytest.raises(AlignmentError):
            assign_to_centers(np.zeros((2, 2)), np.zeros((0, 2)))


@settings(max_examples=20, deadline=None)
@given(
    n_points=st.integers(3, 40),
    n_clusters=st.integers(1, 6),
    seed=st.integers(0, 100),
)
def test_kmeans_invariants(n_points, n_clusters, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_points, 3))
    result = kmeans(points, n_clusters, seed=seed)
    k = min(n_clusters, n_points)
    assert result.centers.shape == (k, 3)
    assert result.assignments.shape == (n_points,)
    assert result.assignments.min() >= 0
    assert result.assignments.max() < k
    assert result.inertia >= 0.0
    # Distinct continuous points leave no cluster empty here. Re-seeding
    # alone does not guarantee that: see TestRepeatedRows.
    assert len(set(result.assignments.tolist())) == k
