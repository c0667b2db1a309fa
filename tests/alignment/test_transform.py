"""Tests for the aligned structures (Eq. 18-25)."""

import numpy as np
import pytest

from repro.errors import AlignmentError, ValidationError
from repro.alignment.correspondence import one_hot
from repro.alignment.prototypes import PrototypeHierarchy
from repro.alignment.transform import (
    aligned_adjacency,
    aligned_density,
    hierarchical_aligned,
)
from repro.graphs import generators as gen
from repro.quantum.density import check_density_matrix, graph_density_matrix
from repro.utils.linalg import EIG_TOL


@pytest.fixture
def correspondence():
    # 5 vertices mapped onto 3 prototypes.
    return one_hot(np.asarray([0, 0, 1, 2, 2]), 3)


class TestAlignedAdjacency:
    def test_shape_and_symmetry(self, correspondence):
        g = gen.cycle_graph(5)
        out = aligned_adjacency(g.adjacency, correspondence)
        assert out.shape == (3, 3)
        assert np.allclose(out, out.T)

    def test_total_weight_conserved(self, correspondence):
        """C^T A C preserves the total edge weight (sum of all entries)."""
        g = gen.erdos_renyi(5, 0.7, seed=0)
        out = aligned_adjacency(g.adjacency, correspondence)
        assert out.sum() == pytest.approx(g.adjacency.sum())

    def test_diagonal_counts_intra_cluster_edges(self):
        g = gen.path_graph(4)  # edges 0-1, 1-2, 2-3
        c = one_hot(np.asarray([0, 0, 1, 1]), 2)
        out = aligned_adjacency(g.adjacency, c)
        # Edge 0-1 is inside prototype 0; C^T A C doubles it on the diagonal.
        assert out[0, 0] == pytest.approx(2.0)
        assert out[0, 1] == pytest.approx(1.0)

    def test_rejects_size_mismatch(self, correspondence):
        with pytest.raises(AlignmentError):
            aligned_adjacency(np.zeros((4, 4)), correspondence)


class TestAlignedDensity:
    def test_valid_density_after_renormalisation(self, correspondence):
        g = gen.barabasi_albert(5, 2, seed=1)
        rho = graph_density_matrix(g)
        out = aligned_density(rho, correspondence)
        check_density_matrix(out)

    def test_without_renormalisation_psd_but_not_unit_trace(self, correspondence):
        g = gen.star_graph(5)
        rho = graph_density_matrix(g)
        out = aligned_density(rho, correspondence, renormalize=False)
        values = np.linalg.eigvalsh(out)
        assert values.min() >= -1e-9  # congruence preserves PSD

    def test_rejects_size_mismatch(self, correspondence):
        with pytest.raises(AlignmentError):
            aligned_density(np.eye(4) / 4, correspondence)


def _hierarchy(sizes, seed):
    """A hand-built hierarchy: ``sizes[h]`` prototypes at level h + 1 and
    random memberships between consecutive levels (centers are unused)."""
    rng = np.random.default_rng(seed)
    centers = [np.zeros((m, 1)) for m in sizes]
    memberships = [
        rng.integers(0, upper, size=lower) for lower, upper in zip(sizes, sizes[1:])
    ]
    return PrototypeHierarchy(centers, memberships)


def _dense(source, level1, hierarchies, *, renormalize):
    """``(1/K) Σ_k`` of the dense congruence of each level's one-hot ``C``."""
    out = []
    for level in range(1, hierarchies[0].n_levels + 1):
        total = 0.0
        for assignment, hierarchy in zip(level1, hierarchies):
            lifted = hierarchy.lift_assignment(assignment, level)
            c = one_hot(lifted, hierarchy.size(level))
            if renormalize:
                total = total + aligned_density(source, c)
            else:
                total = total + aligned_adjacency(source, c)
        out.append(total / len(hierarchies))
    return out


def _random_density(n, rank, seed):
    vectors = np.random.default_rng(seed).standard_normal((n, rank))
    rho = vectors @ vectors.T
    rho = (rho + rho.T) / 2.0
    return rho / np.trace(rho)


class TestHierarchicalAligned:
    """The scatter against the dense congruences, on hand-built hierarchies
    and arbitrary assignments (the aligner-level oracle is in
    ``test_aligned_reference.py``)."""

    SIZES = (7, 4, 2, 1)

    def _case(self, n, n_dims, seed):
        rng = np.random.default_rng(seed)
        hierarchies = [_hierarchy(self.SIZES, seed * 10 + k) for k in range(n_dims)]
        level1 = [rng.integers(0, self.SIZES[0], size=n) for _ in range(n_dims)]
        return level1, hierarchies

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_weighted_adjacency_is_bit_equal(self, seed):
        n = 3 + seed * 3
        level1, hierarchies = self._case(n, n_dims=1 + seed % 4, seed=seed)
        weights = np.random.default_rng(seed).integers(0, 4, size=(n, n))
        adjacency = np.triu(weights, 1).astype(float)
        adjacency = adjacency + adjacency.T
        got = hierarchical_aligned(adjacency, level1, hierarchies)
        want = _dense(adjacency, level1, hierarchies, renormalize=False)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_density_within_tier(self, seed, renormalize):
        n = 2 + seed * 4
        level1, hierarchies = self._case(n, n_dims=1 + seed % 4, seed=seed)
        rho = _random_density(n, rank=1 + seed % 3, seed=seed)
        got = hierarchical_aligned(rho, level1, hierarchies, renormalize=renormalize)
        want = _dense(rho, level1, hierarchies, renormalize=renormalize)
        assert [g.shape for g in got] == [(m, m) for m in self.SIZES]
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12
            assert np.array_equal(g, g.T)
        if renormalize:
            for g in got:
                assert np.trace(g) == pytest.approx(1.0, abs=1e-12)

    def test_zero_trace_dimension_takes_the_identity_fallback(self):
        # rho = (e0 - e1)(e0 - e1)ᵀ / 2 sums to zero over any prototype
        # holding both vertex 0 and vertex 1 and over any holding neither.
        rho = np.zeros((4, 4))
        rho[:2, :2] = [[0.5, -0.5], [-0.5, 0.5]]
        hierarchies = [_hierarchy(self.SIZES, 1), _hierarchy(self.SIZES, 2)]
        # Dimension 0 keeps vertices 0 and 1 together at every level (zero
        # trace throughout); dimension 1 splits them at level 1.
        level1 = [np.array([3, 3, 5, 6]), np.array([0, 1, 2, 2])]
        got = hierarchical_aligned(rho, level1, hierarchies, renormalize=True)
        want = _dense(rho, level1, hierarchies, renormalize=True)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12
        identity = np.eye(self.SIZES[0]) / self.SIZES[0]
        split = aligned_density(rho, one_hot(level1[1], self.SIZES[0]))
        assert np.allclose(got[0], (identity + split) / 2, atol=1e-15)

    def test_every_dimension_degenerate_gives_the_identity(self):
        rho = np.zeros((3, 3))
        rho[0, 0] = rho[2, 2] = 0.5
        rho[0, 2] = rho[2, 0] = -0.5
        hierarchies = [_hierarchy(self.SIZES, 3)]
        got = hierarchical_aligned(
            rho, [np.array([2, 4, 2])], hierarchies, renormalize=True
        )
        for g, m in zip(got, self.SIZES):
            assert np.array_equal(g, np.eye(m) / m)

    def test_trace_at_the_tolerance_counts_as_zero(self):
        rho = np.diag([EIG_TOL, 0.0])
        hierarchies = [_hierarchy((2, 1), 0)]
        got = hierarchical_aligned(
            rho, [np.array([0, 1])], hierarchies, renormalize=True
        )
        assert np.array_equal(got[0], np.eye(2) / 2)

    def test_rejects_count_mismatch(self):
        level1, hierarchies = self._case(4, n_dims=2, seed=0)
        with pytest.raises(AlignmentError, match="one level-1 assignment"):
            hierarchical_aligned(np.eye(4), level1[:1], hierarchies)
        with pytest.raises(AlignmentError, match="one level-1 assignment"):
            hierarchical_aligned(np.eye(4), [], [])

    def test_rejects_wrong_length_or_dtype(self):
        level1, hierarchies = self._case(4, n_dims=1, seed=0)
        with pytest.raises(AlignmentError, match="4 integer indices"):
            hierarchical_aligned(np.eye(4), [level1[0][:3]], hierarchies)
        with pytest.raises(AlignmentError, match="4 integer indices"):
            hierarchical_aligned(np.eye(4), [level1[0].astype(float)], hierarchies)

    def test_rejects_out_of_range(self):
        hierarchies = [_hierarchy(self.SIZES, 0)]
        for bad in ([0, 1, 2, 7], [-1, 0, 0, 0]):
            with pytest.raises(AlignmentError, match="out of range"):
                hierarchical_aligned(np.eye(4), [np.array(bad)], hierarchies)

    def test_rejects_hierarchies_of_different_sizes(self):
        hierarchies = [_hierarchy((4, 2), 0), _hierarchy((4, 3), 1)]
        level1 = [np.zeros(3, dtype=int)] * 2
        with pytest.raises(AlignmentError, match="level sizes"):
            hierarchical_aligned(np.eye(3), level1, hierarchies)

    def test_rejects_asymmetric_source(self):
        hierarchies = [_hierarchy((4, 2), 0)]
        with pytest.raises(ValidationError):
            hierarchical_aligned(
                np.triu(np.ones((3, 3))), [np.zeros(3, dtype=int)], hierarchies
            )
