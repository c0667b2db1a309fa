"""Contract tests every kernel must satisfy (parametrized over the zoo).

Checks: Gram symmetry, positive diagonal, normalisation, determinism,
isomorphism invariance (for the kernels that claim it), and PSD-ness for
the kernels whose traits claim positive definiteness.
"""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.kernels import (
    AlignedSubtreeKernel,
    GraphletKernel,
    HAQJSKKernelA,
    HAQJSKKernelD,
    JensenShannonKernel,
    JensenTsallisQKernel,
    PyramidMatchKernel,
    QJSKAligned,
    QJSKUnaligned,
    RandomWalkKernel,
    RenyiEntropyKernel,
    ShortestPathKernel,
    WeisfeilerLehmanKernel,
    core_sp_kernel,
    core_wl_kernel,
)
from repro.utils.linalg import is_positive_semidefinite


def kernel_roster():
    return [
        HAQJSKKernelA(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
        HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
        QJSKUnaligned(),
        QJSKAligned(),
        WeisfeilerLehmanKernel(3),
        ShortestPathKernel(),
        GraphletKernel(3),
        core_wl_kernel(2),
        core_sp_kernel(),
        PyramidMatchKernel(dimensions=3, n_levels=2),
        JensenTsallisQKernel(n_iterations=3),
        AlignedSubtreeKernel(n_iterations=3, max_layers=4),
        RenyiEntropyKernel(n_layers=4),
        JensenShannonKernel(),
        RandomWalkKernel(),
    ]


ZOO = kernel_roster()
ZOO_IDS = [k.name for k in ZOO]

#: Kernels that are exactly invariant to vertex relabelling of one graph.
#: (GCGK with 4-graphlet sampling and the QJSD-padding kernels are not.)
INVARIANT = {
    "HAQJSK(A)", "HAQJSK(D)", "WLSK", "SPGK", "CORE WLSK", "CORE SPGK",
    "GCGK", "PMGK", "JTQK", "SPEGK", "JSDK", "RWK", "ASK",
}


@pytest.fixture(scope="module")
def probe_graphs():
    return [
        gen.cycle_graph(6),
        gen.path_graph(7),
        gen.star_graph(7),
        gen.barabasi_albert(9, 2, seed=0),
        gen.erdos_renyi(8, 0.4, seed=1).largest_component(),
        gen.watts_strogatz(8, 4, 0.3, seed=2),
    ]


@pytest.mark.parametrize("kernel", ZOO, ids=ZOO_IDS)
class TestKernelContract:
    def test_gram_symmetric(self, kernel, probe_graphs):
        gram = kernel.gram(probe_graphs)
        assert np.allclose(gram, gram.T)

    def test_diagonal_positive(self, kernel, probe_graphs):
        gram = kernel.gram(probe_graphs)
        assert np.all(np.diag(gram) > 0)

    def test_normalized_diagonal_one(self, kernel, probe_graphs):
        gram = kernel.gram(probe_graphs, normalize=True)
        assert np.allclose(np.diag(gram), 1.0)

    def test_deterministic(self, kernel, probe_graphs):
        first = kernel.gram(probe_graphs)
        second = kernel.gram(probe_graphs)
        assert np.allclose(first, second)

    def test_pair_call_matches_gram(self, kernel, probe_graphs):
        if kernel.name.startswith("HAQJSK"):
            pytest.skip("HAQJSK is collection-level: pairs depend on the set")
        gram = kernel.gram(probe_graphs[:2])
        assert kernel(probe_graphs[0], probe_graphs[1]) == pytest.approx(
            gram[0, 1]
        )

    def test_ensure_psd_flag(self, kernel, probe_graphs):
        gram = kernel.gram(probe_graphs, normalize=True, ensure_psd=True)
        assert is_positive_semidefinite(gram, tol=1e-6)

    def test_rejects_empty_list(self, kernel):
        from repro.errors import KernelError

        with pytest.raises(KernelError):
            kernel.gram([])

    def test_rejects_empty_graph(self, kernel):
        from repro.errors import KernelError
        from repro.graphs.graph import Graph

        with pytest.raises(KernelError):
            kernel.gram([Graph(np.zeros((0, 0)))])


@pytest.mark.parametrize(
    "kernel",
    [k for k in ZOO if k.traits.positive_definite],
    ids=[k.name for k in ZOO if k.traits.positive_definite],
)
def test_claimed_pd_kernels_have_psd_gram(kernel, probe_graphs):
    gram = kernel.gram(probe_graphs, normalize=True)
    assert is_positive_semidefinite(gram, tol=1e-6), kernel.name


@pytest.mark.parametrize(
    "kernel",
    [k for k in ZOO if k.name in INVARIANT],
    ids=[k.name for k in ZOO if k.name in INVARIANT],
)
def test_isomorphism_invariance(kernel, probe_graphs):
    """Relabelling one graph's vertices must not change the Gram matrix
    (sampling-based kernels are seeded per position, so GCGK uses its
    exact 3-graphlet configuration here)."""
    if kernel.name == "GCGK":
        kernel = GraphletKernel(3)
    rng = np.random.default_rng(7)
    target = 3
    perm = rng.permutation(probe_graphs[target].n_vertices)
    permuted = list(probe_graphs)
    permuted[target] = probe_graphs[target].permuted(perm)
    gram_a = kernel.gram(probe_graphs, normalize=True)
    gram_b = kernel.gram(permuted, normalize=True)
    assert np.allclose(gram_a, gram_b, atol=1e-7), kernel.name


class TestCrossGram:
    """The rectangular Gram API (used by the Nyström approximation)."""

    def test_pairwise_cross_gram_matches_full_gram_block(self):
        graphs = [gen.random_tree(8, seed=i) for i in range(6)]
        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=3, seed=0)
        full = kernel.gram(graphs)
        cross = kernel.cross_gram(graphs[:4], graphs[4:])
        # Same collection overall (4 + 2 graphs), so the block must match.
        assert cross.shape == (4, 2)
        assert np.allclose(cross, full[:4, 4:], atol=1e-9)

    def test_feature_map_cross_gram_matches_block(self):
        graphs = [gen.erdos_renyi(9, 0.3, seed=i) for i in range(5)]
        kernel = WeisfeilerLehmanKernel(2)
        full = kernel.gram(graphs)
        cross = kernel.cross_gram(graphs[:3], graphs[3:])
        assert np.allclose(cross, full[:3, 3:], atol=1e-9)

    def test_cross_gram_rejects_empty(self):
        from repro.errors import KernelError

        kernel = HAQJSKKernelD(n_prototypes=4, n_levels=2, max_layers=2)
        with pytest.raises(KernelError):
            kernel.cross_gram([], [gen.path_graph(3)])
