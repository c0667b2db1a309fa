"""Tests for the Eq. 4/5 time-averaged density matrices.

``ctqw_density_matrix`` forms ``rho = Q Q^T`` from the stacked eigenspace
projections. Its declared tier is 1e-12 from the per-eigenspace loop kept
in ``density_reference.py``, checked on generated graphs, degenerate
spectra (cycles, complete graphs, disjoint copies of one component) and
aligned adjacencies with diagonal mass, under every registered
Hamiltonian and with custom initial states.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from density_reference import (
    group_degenerate_eigenvalues,
    reference_ctqw_density_matrix,
)
from graph_strategies import graphs
from repro.alignment.transform import aligned_adjacency
from repro.errors import NotDensityMatrixError, QuantumError
from repro.graphs import generators as gen
from repro.graphs.ops import disjoint_union
from repro.quantum.ctqw import CTQW
from repro.quantum.density import (
    check_density_matrix,
    ctqw_density_matrix,
    finite_time_density_matrix,
    graph_density_matrix,
    mix_density_matrices,
    pad_density_matrix,
    purity,
)
from repro.quantum.operators import available_hamiltonians
from repro.utils.linalg import degenerate_run_starts


class TestClosedForm:
    def test_is_density_matrix(self, petersen_like):
        rho = graph_density_matrix(petersen_like)
        check_density_matrix(rho)

    def test_trace_one(self, mixed_collection):
        for g in mixed_collection:
            assert np.trace(graph_density_matrix(g)) == pytest.approx(1.0)

    def test_matches_finite_time_limit(self):
        g = gen.erdos_renyi(10, 0.35, seed=11)
        closed = graph_density_matrix(g)
        sampled = finite_time_density_matrix(g.adjacency, 400.0, steps=4000)
        assert np.max(np.abs(closed - sampled)) < 5e-4

    def test_regular_graph_pure_state(self):
        # On a regular graph the degree initial state is the Laplacian's
        # 0-eigenvector, so the time average is the pure initial state.
        g = gen.cycle_graph(8)
        rho = graph_density_matrix(g)
        assert purity(rho) == pytest.approx(1.0, abs=1e-9)

    def test_irregular_graph_mixed_state(self, star5):
        rho = graph_density_matrix(star5)
        assert purity(rho) < 1.0 - 1e-6

    def test_permutation_covariance(self, petersen_like):
        """rho(P G P^T) == P rho(G) P^T — density matrices are covariant."""
        rng = np.random.default_rng(0)
        perm = rng.permutation(petersen_like.n_vertices)
        rho = graph_density_matrix(petersen_like)
        rho_permuted = graph_density_matrix(petersen_like.permuted(perm))
        assert np.allclose(rho_permuted, rho[np.ix_(perm, perm)], atol=1e-9)

    def test_custom_initial_state(self, path4):
        psi0 = np.asarray([1.0, 0.0, 0.0, 0.0])
        rho = ctqw_density_matrix(path4.adjacency, initial_state=psi0)
        check_density_matrix(rho)

    def test_rejects_zero_initial_state(self, path4):
        with pytest.raises(QuantumError, match="non-zero"):
            ctqw_density_matrix(path4.adjacency, initial_state=np.zeros(4))

    def test_rejects_wrong_size_initial_state(self, path4):
        with pytest.raises(QuantumError, match="shape"):
            ctqw_density_matrix(path4.adjacency, initial_state=np.ones(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_initial_state(self, path4, bad):
        psi0 = np.asarray([1.0, bad, 0.0, 0.0])
        with pytest.raises(QuantumError) as walk:
            CTQW(path4.adjacency, initial_state=psi0)
        with pytest.raises(QuantumError) as density:
            ctqw_density_matrix(path4.adjacency, initial_state=psi0)
        assert str(density.value) == str(walk.value)

    def test_rejects_empty(self):
        with pytest.raises(QuantumError):
            ctqw_density_matrix(np.zeros((0, 0)))

    def test_adjacency_hamiltonian_also_valid(self, petersen_like):
        rho = graph_density_matrix(petersen_like, hamiltonian="adjacency")
        check_density_matrix(rho)

    def test_edgeless_graph_uniform_pure(self):
        rho = ctqw_density_matrix(np.zeros((4, 4)))
        assert np.allclose(rho, np.full((4, 4), 0.25))


#: Declared tier of ``rho = Q Q^T`` against the per-eigenspace loop.
LOOP_TOL = 1e-12

HAMILTONIANS = available_hamiltonians()


def _one_hot(assignment, n_prototypes):
    correspondence = np.zeros((len(assignment), n_prototypes))
    correspondence[np.arange(len(assignment)), assignment] = 1.0
    return correspondence


def _degenerate_structures():
    """Structures whose spectra repeat eigenvalues, and aligned adjacencies
    whose diagonal carries intra-prototype edge mass (paper Eq. 19)."""
    structures = {
        "cycle-4": gen.cycle_graph(4).adjacency,
        "cycle-12": gen.cycle_graph(12).adjacency,
        "complete-2": gen.complete_graph(2).adjacency,
        "complete-7": gen.complete_graph(7).adjacency,
        "single-vertex": np.zeros((1, 1)),
        "edgeless-5": np.zeros((5, 5)),
        "three-cycles": disjoint_union([gen.cycle_graph(5)] * 3).adjacency,
        "two-stars": disjoint_union([gen.star_graph(4)] * 2).adjacency,
        "two-k4-and-isolated": disjoint_union(
            [gen.complete_graph(4), gen.complete_graph(4), gen.empty_graph(2)]
        ).adjacency,
    }
    tree = gen.random_tree(12, seed=3)
    structures["aligned-tree"] = aligned_adjacency(
        tree.adjacency, _one_hot(np.arange(12) % 5, 7)
    )
    structures["aligned-cycle"] = aligned_adjacency(
        gen.cycle_graph(9).adjacency, _one_hot(np.arange(9) // 3, 3)
    )
    return structures


def _assert_matches_loop(adjacency, hamiltonian, initial_state=None):
    rho = ctqw_density_matrix(
        adjacency, hamiltonian=hamiltonian, initial_state=initial_state
    )
    expected = reference_ctqw_density_matrix(
        adjacency, hamiltonian=hamiltonian, initial_state=initial_state
    )
    assert rho.shape == expected.shape
    assert np.array_equal(rho, rho.T)
    assert np.max(np.abs(rho - expected)) <= LOOP_TOL


@st.composite
def structures(draw):
    """A generated graph's adjacency or, half the time, its aligned
    adjacency under a random one-hot correspondence."""
    graph = draw(graphs())
    n = graph.n_vertices
    assume(n > 0)
    if not draw(st.booleans()):
        return graph.adjacency
    n_prototypes = draw(st.integers(1, n))
    assignment = draw(st.lists(st.integers(0, n_prototypes - 1), min_size=n, max_size=n))
    return aligned_adjacency(graph.adjacency, _one_hot(assignment, n_prototypes))


class TestAgainstPerEigenspaceLoop:
    @pytest.mark.parametrize("hamiltonian", HAMILTONIANS)
    @pytest.mark.parametrize("name", sorted(_degenerate_structures()))
    def test_degenerate_and_aligned_structures(self, name, hamiltonian):
        _assert_matches_loop(_degenerate_structures()[name], hamiltonian)

    @pytest.mark.parametrize("hamiltonian", HAMILTONIANS)
    def test_custom_initial_state(self, hamiltonian):
        adjacency = disjoint_union([gen.cycle_graph(6)] * 2).adjacency
        psi0 = np.linspace(-1.0, 2.0, 12)
        _assert_matches_loop(adjacency, hamiltonian, psi0)

    @settings(max_examples=150, deadline=None)
    @given(
        adjacency=structures(),
        hamiltonian=st.sampled_from(HAMILTONIANS),
        custom_state=st.booleans(),
        data=st.data(),
    )
    def test_generated_structures(self, adjacency, hamiltonian, custom_state, data):
        psi0 = None
        if custom_state:
            n = adjacency.shape[0]
            psi0 = np.asarray(
                data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
            )
            assume(np.linalg.norm(psi0) > 1e-3)
        _assert_matches_loop(adjacency, hamiltonian, psi0)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 2.0, -3.5, 1e6]),
            max_size=12,
        )
    )
    def test_run_starts_are_the_loop_groups(self, values):
        sorted_values = np.sort(np.asarray(values, dtype=float))
        groups = group_degenerate_eigenvalues(sorted_values)
        starts = degenerate_run_starts(sorted_values)
        assert starts.tolist() == [int(group[0]) for group in groups]


class TestCheckDensityMatrix:
    def test_rejects_trace(self):
        with pytest.raises(NotDensityMatrixError, match="trace"):
            check_density_matrix(np.eye(3))

    def test_rejects_indefinite(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(NotDensityMatrixError, match="PSD"):
            check_density_matrix(bad)

    def test_rejects_empty(self):
        with pytest.raises(NotDensityMatrixError):
            check_density_matrix(np.zeros((0, 0)))


class TestMixAndPad:
    def test_mixture_is_density(self, star5, path4):
        rho_a = graph_density_matrix(star5)
        rho_b = graph_density_matrix(gen.cycle_graph(5))
        mixed = mix_density_matrices([rho_a, rho_b])
        check_density_matrix(mixed)

    def test_mixture_weights(self):
        a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        mixed = mix_density_matrices([a, b], [3.0, 1.0])
        assert np.allclose(np.diag(mixed), [0.75, 0.25])

    def test_mixture_rejects_size_mismatch(self):
        with pytest.raises(QuantumError):
            mix_density_matrices([np.eye(2) / 2, np.eye(3) / 3])

    def test_mixture_rejects_negative_weights(self):
        with pytest.raises(QuantumError):
            mix_density_matrices([np.eye(2) / 2, np.eye(2) / 2], [1.0, -1.0])

    def test_pad_preserves_trace_and_psd(self, star5):
        rho = graph_density_matrix(star5)
        padded = pad_density_matrix(rho, 9)
        check_density_matrix(padded)
        assert padded.shape == (9, 9)

    def test_pad_identity_when_same_size(self, star5):
        rho = graph_density_matrix(star5)
        assert np.array_equal(pad_density_matrix(rho, 5), rho)

    def test_pad_rejects_shrinking(self, star5):
        rho = graph_density_matrix(star5)
        with pytest.raises(QuantumError):
            pad_density_matrix(rho, 3)

    def test_purity_bounds(self, mixed_collection):
        for g in mixed_collection:
            value = purity(graph_density_matrix(g))
            assert 1.0 / g.n_vertices - 1e-9 <= value <= 1.0 + 1e-9
