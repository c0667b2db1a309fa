"""Quantum substrate: CTQW, density matrices, entropies, QJSD."""

from repro.quantum.ctqw import CTQW
from repro.quantum.ctrw import CTRW, return_probability_curve
from repro.quantum.density import (
    check_density_matrix,
    ctqw_density_matrix,
    finite_time_density_matrix,
    graph_density_matrix,
    mix_density_matrices,
    pad_density_matrix,
    purity,
)
from repro.quantum.divergence import (
    QJSD_MAX,
    classical_jensen_shannon_divergence,
    jensen_tsallis_q_difference,
    qjsd_between_padded,
    quantum_jensen_shannon_divergence,
)
from repro.quantum.entropy import (
    graph_von_neumann_entropy,
    renyi_entropy,
    shannon_entropies,
    shannon_entropy,
    tsallis_entropy,
    von_neumann_entropies,
    von_neumann_entropy,
)
from repro.quantum.operators import (
    available_hamiltonians,
    hamiltonian_from_adjacency,
)
from repro.quantum.state import (
    degree_initial_state,
    pure_state_density,
    uniform_initial_state,
)

__all__ = [
    "CTQW",
    "CTRW",
    "QJSD_MAX",
    "available_hamiltonians",
    "check_density_matrix",
    "classical_jensen_shannon_divergence",
    "ctqw_density_matrix",
    "degree_initial_state",
    "finite_time_density_matrix",
    "graph_density_matrix",
    "graph_von_neumann_entropy",
    "hamiltonian_from_adjacency",
    "jensen_tsallis_q_difference",
    "mix_density_matrices",
    "pad_density_matrix",
    "pure_state_density",
    "purity",
    "qjsd_between_padded",
    "quantum_jensen_shannon_divergence",
    "renyi_entropy",
    "return_probability_curve",
    "shannon_entropies",
    "shannon_entropy",
    "tsallis_entropy",
    "uniform_initial_state",
    "von_neumann_entropies",
    "von_neumann_entropy",
]
