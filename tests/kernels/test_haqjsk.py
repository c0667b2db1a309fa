"""Tests for the HAQJSK kernels (the paper's core contribution)."""

import numpy as np
import pytest

import repro.kernels.haqjsk as haqjsk
from repro import KernelSpec, Session
from repro.alignment import prototypes
from repro.alignment.depth_based import DBRepresentationExtractor
from repro.errors import AlignmentError, KernelError, ValidationError
from repro.graphs import generators as gen
from repro.kernels.haqjsk import (
    HAQJSKKernelA,
    HAQJSKKernelD,
    HierarchicalAligner,
)
from repro.quantum.density import check_density_matrix
from repro.quantum.operators import hamiltonian_from_adjacency
from repro.utils.linalg import is_positive_semidefinite


@pytest.fixture(scope="module")
def collection():
    return (
        [gen.random_tree(10, seed=i) for i in range(4)]
        + [gen.erdos_renyi(11, 0.4, seed=i).largest_component() for i in range(4)]
        + [gen.barabasi_albert(12, 2, seed=i) for i in range(4)]
    )


@pytest.fixture(scope="module")
def aligner():
    return HierarchicalAligner(n_prototypes=8, n_levels=3, max_layers=4, seed=0)


class TestHierarchicalAligner:
    def test_fixed_sizes_across_graphs(self, collection, aligner):
        adjacencies = aligner.transform(collection, "adjacency")
        for level in range(3):
            sizes = {levels[level].shape for levels in adjacencies}
            assert len(sizes) == 1  # all graphs share the level size

    def test_level_sizes_shrink(self, collection, aligner):
        levels = aligner.transform(collection, "adjacency")[0]
        sizes = [matrix.shape[0] for matrix in levels]
        assert len(sizes) == 3
        assert sizes == sorted(sizes, reverse=True)

    def test_aligned_densities_are_density_matrices(self, collection, aligner):
        for levels in aligner.transform(collection, "density"):
            for density in levels:
                check_density_matrix(density)

    def test_aligned_adjacency_nonnegative_symmetric(self, collection, aligner):
        for levels in aligner.transform(collection, "adjacency"):
            for adjacency in levels:
                assert np.allclose(adjacency, adjacency.T)
                assert np.all(adjacency >= -1e-12)

    def test_edge_mass_conserved(self, collection, aligner):
        adjacencies = aligner.transform(collection, "adjacency")
        for graph, levels in zip(collection, adjacencies):
            assert levels[0].sum() == pytest.approx(graph.adjacency.sum())

    def test_deterministic(self, collection):
        a = HierarchicalAligner(n_prototypes=8, n_levels=2, max_layers=3, seed=5)
        b = HierarchicalAligner(n_prototypes=8, n_levels=2, max_layers=3, seed=5)
        sa = a.transform(collection, "adjacency")
        sb = b.transform(collection, "adjacency")
        for x, y in zip(sa, sb):
            assert np.allclose(x[0], y[0])

    def test_rejects_empty_collection(self, aligner):
        with pytest.raises(KernelError):
            aligner.transform([], "density")

    def test_inconsistent_k_option(self, collection):
        aligner = HierarchicalAligner(
            n_prototypes=8, n_levels=2, max_layers=3, seed=0,
            consistent_across_k=False,
        )
        densities = aligner.transform(collection, "density")
        assert len(densities) == len(collection)

    def test_rejects_unknown_structure_before_fitting(self, collection, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("k-means ran before the structure was checked")

        monkeypatch.setattr(prototypes, "kmeans", no_fit)
        with pytest.raises(AlignmentError, match="'both'"):
            HierarchicalAligner(n_prototypes=8).transform(collection, "both")


def _forbid(monkeypatch, *names):
    """Make the named ``repro.kernels.haqjsk`` functions fail if called."""
    for name in names:
        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} was called")

        monkeypatch.setattr(haqjsk, name, forbidden)


class TestVariantScopedAlignment:
    """Each variant builds only the aligned structure it reads."""

    def test_density_variant_skips_adjacency_congruences(self, collection, monkeypatch):
        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=3, max_layers=4, seed=0)
        expected = kernel.prepare(collection)
        _forbid(monkeypatch, "aligned_adjacency")
        states = kernel.prepare(collection)
        for (ent_a, mats_a), (ent_b, mats_b) in zip(states, expected):
            assert ent_a == ent_b
            assert all(np.array_equal(x, y) for x, y in zip(mats_a, mats_b))

    def test_adjacency_variant_skips_densities(self, collection, monkeypatch):
        kernel = HAQJSKKernelA(n_prototypes=8, n_levels=3, max_layers=4, seed=0)
        expected = kernel.gram(collection)
        _forbid(monkeypatch, "aligned_density", "graph_density_matrix")
        assert np.array_equal(kernel.gram(collection), expected)

    def test_structure_is_a_class_constant(self):
        assert HAQJSKKernelA.aligned_structure == "adjacency"
        assert HAQJSKKernelD.aligned_structure == "density"
        kernel = HAQJSKKernelD(n_prototypes=8)
        assert "aligned_structure" not in vars(kernel)
        assert "aligned_structure" not in vars(kernel.aligner)


HAQJSK_NAMES = ["HAQJSK(A)", "HAQJSK(D)", "HAQJSK-L(A)", "HAQJSK-L(D)"]


class TestConstructionValidation:
    """A bad Hamiltonian or entropy fails when the kernel is built, with
    the error the computation would raise, not after the alignment."""

    @pytest.mark.parametrize("name", HAQJSK_NAMES)
    def test_unknown_hamiltonian(self, name):
        with pytest.raises(ValidationError) as deep:
            hamiltonian_from_adjacency(np.zeros((1, 1)), "bogus")
        with pytest.raises(ValidationError) as caught:
            Session().kernel(KernelSpec(name, hamiltonian="bogus"))
        assert str(caught.value) == str(deep.value)

    @pytest.mark.parametrize("name", HAQJSK_NAMES)
    def test_unknown_entropy(self, name):
        with pytest.raises(ValidationError) as deep:
            DBRepresentationExtractor(entropy="bogus")
        with pytest.raises(ValidationError) as caught:
            Session().kernel(KernelSpec(name, entropy="bogus"))
        assert str(caught.value) == str(deep.value)

    @pytest.mark.parametrize("hamiltonian", ["laplacian", "adjacency", "normalized_laplacian"])
    def test_registered_hamiltonians_accepted(self, hamiltonian):
        aligner = HierarchicalAligner(hamiltonian=hamiltonian, entropy="von_neumann")
        assert aligner.hamiltonian == hamiltonian
        assert aligner.entropy == "von_neumann"


class TestHAQJSKKernels:
    @pytest.mark.parametrize("cls", [HAQJSKKernelA, HAQJSKKernelD])
    def test_psd_without_repair(self, cls, collection):
        kernel = cls(n_prototypes=8, n_levels=3, max_layers=4, seed=0)
        gram = kernel.gram(collection, normalize=True)
        assert is_positive_semidefinite(gram, tol=1e-7)

    @pytest.mark.parametrize("cls", [HAQJSKKernelA, HAQJSKKernelD])
    def test_permutation_invariance_exact(self, cls, collection):
        kernel = cls(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        rng = np.random.default_rng(0)
        permuted = [
            g.permuted(rng.permutation(g.n_vertices)) for g in collection
        ]
        gram_a = kernel.gram(collection)
        gram_b = kernel.gram(permuted)
        assert np.allclose(gram_a, gram_b, atol=1e-9)

    @pytest.mark.parametrize("cls", [HAQJSKKernelA, HAQJSKKernelD])
    def test_diagonal_is_maximal(self, cls, collection):
        """exp(-QJSD) is maximised at zero divergence, so self-similarity
        bounds every off-diagonal value."""
        kernel = cls(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        gram = kernel.gram(collection)
        diag = np.diag(gram)
        assert np.all(gram <= np.minimum(diag[:, None], diag[None, :]) + 1e-9)

    @pytest.mark.parametrize("cls", [HAQJSKKernelA, HAQJSKKernelD])
    def test_value_range(self, cls, collection):
        """Each level contributes exp(-D) in [exp(-log 2), 1], H levels."""
        kernel = cls(n_prototypes=8, n_levels=3, max_layers=4, seed=0)
        gram = kernel.gram(collection)
        assert np.all(gram <= 3.0 + 1e-9)
        assert np.all(gram >= 3.0 * 0.5 - 1e-9)

    def test_class_separation(self, collection):
        """Trees vs dense graphs must be separable in the Gram structure."""
        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=3, max_layers=4, seed=0)
        gram = kernel.gram(collection, normalize=True)
        trees = slice(0, 4)
        dense = slice(4, 8)
        within = gram[trees, trees].mean()
        between = gram[trees, dense].mean()
        assert within > between

    def test_rejects_aligner_and_kwargs(self):
        with pytest.raises(KernelError):
            HAQJSKKernelA(HierarchicalAligner(), n_prototypes=4)

    def test_shared_aligner_instance(self, collection):
        aligner = HierarchicalAligner(
            n_prototypes=8, n_levels=2, max_layers=3, seed=0
        )
        kernel = HAQJSKKernelA(aligner)
        assert kernel.aligner is aligner
        kernel.gram(collection[:4])

    def test_traits_match_paper_claims(self):
        for cls in (HAQJSKKernelA, HAQJSKKernelD):
            traits = cls(n_prototypes=4).traits
            assert traits.positive_definite
            assert traits.aligned and traits.transitive
            assert traits.hierarchical
            assert traits.captures_local and traits.captures_global
            assert traits.computing_model == "Quantum Walks"
