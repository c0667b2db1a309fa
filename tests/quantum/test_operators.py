"""Tests for Hamiltonian constructions."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.errors import ValidationError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.ops import normalized_laplacian
from repro.quantum.operators import (
    available_hamiltonians,
    hamiltonian_from_adjacency,
)


class TestRegistry:
    def test_known_names(self):
        names = available_hamiltonians()
        assert {"laplacian", "adjacency", "normalized_laplacian"} <= set(names)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            hamiltonian_from_adjacency(np.eye(2) * 0, "bogus")


class TestLaplacian:
    def test_row_sums_zero(self, petersen_like):
        h = hamiltonian_from_adjacency(petersen_like.adjacency, "laplacian")
        assert np.allclose(h.sum(axis=1), 0.0)

    def test_weighted_degrees(self):
        adjacency = np.asarray([[0.0, 2.5], [2.5, 0.0]])
        h = hamiltonian_from_adjacency(adjacency, "laplacian")
        assert h[0, 0] == pytest.approx(2.5)

    def test_psd(self, mixed_collection):
        for g in mixed_collection:
            values = np.linalg.eigvalsh(
                hamiltonian_from_adjacency(g.adjacency, "laplacian")
            )
            assert values.min() >= -1e-9


class TestOthers:
    def test_adjacency_identity_mapping(self, path4):
        h = hamiltonian_from_adjacency(path4.adjacency, "adjacency")
        assert np.array_equal(h, path4.adjacency)

    def test_normalized_laplacian_spectrum(self, petersen_like):
        h = hamiltonian_from_adjacency(petersen_like.adjacency, "normalized_laplacian")
        values = np.linalg.eigvalsh(h)
        assert values.min() >= -1e-9
        assert values.max() <= 2.0 + 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            hamiltonian_from_adjacency(np.asarray([[0.0, 1.0], [0.0, 0.0]]), "laplacian")

    @pytest.mark.parametrize("name", ["MUTAG", "PPIs"])
    def test_normalized_laplacian_matches_graph_form(self, name, mixed_collection):
        """On a zero-diagonal adjacency the matrix construction is the
        graph's normalised Laplacian, byte for byte."""
        graphs = list(load_dataset(name, scale=0.05, seed=0).graphs)
        graphs += mixed_collection + [Graph(np.zeros((3, 3))), gen.empty_graph(1)]
        for graph in graphs:
            h = hamiltonian_from_adjacency(graph.adjacency, "normalized_laplacian")
            expected = normalized_laplacian(Graph(graph.adjacency))
            assert h.tobytes() == expected.tobytes()

    def test_normalized_laplacian_counts_diagonal_mass(self):
        """An aligned adjacency's diagonal (intra-prototype edges, paper
        Eq. 19) is part of the degree; zero-degree rows are identity rows."""
        adjacency = np.asarray(
            [[2.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        h = hamiltonian_from_adjacency(adjacency, "normalized_laplacian")
        degrees = np.asarray([3.0, 1.0])
        expected_block = np.eye(2) - adjacency[:2, :2] / np.sqrt(
            np.outer(degrees, degrees)
        )
        np.testing.assert_allclose(h[:2, :2], expected_block, rtol=0, atol=1e-15)
        assert np.array_equal(h[2], [0.0, 0.0, 1.0])
        assert np.array_equal(h[:, 2], [0.0, 0.0, 1.0])
        values = np.linalg.eigvalsh(h)
        assert values.min() >= -1e-12 and values.max() <= 2.0 + 1e-12
