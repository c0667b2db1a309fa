"""Tests for the aligned structures (Eq. 18-25)."""

import numpy as np
import pytest

from repro.errors import AlignmentError
from repro.alignment.correspondence import one_hot
from repro.alignment.transform import (
    aligned_adjacency,
    aligned_density,
    average_over_k,
)
from repro.graphs import generators as gen
from repro.quantum.density import check_density_matrix, graph_density_matrix


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


class TestAverageOverK:
    def test_mean(self):
        out = average_over_k([np.zeros((2, 2)), np.full((2, 2), 2.0)])
        assert np.allclose(out, 1.0)

    def test_single(self):
        m = np.eye(3)
        assert np.array_equal(average_over_k([m]), m)

    def test_rejects_empty(self):
        with pytest.raises(AlignmentError):
            average_over_k([])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(AlignmentError):
            average_over_k([np.zeros((2, 2)), np.zeros((3, 3))])
