"""The previous-generation QJSK kernels (paper Section II-D, refs [32, 41]).

Two baselines the paper improves upon:

* :class:`QJSKUnaligned` — ``k_QJSU`` (Eq. 9): zero-pad the smaller
  density matrix and take ``exp(-mu * QJSD)``. Not permutation invariant,
  not positive definite.
* :class:`QJSKAligned` — ``k_QJSA`` (Eq. 11): first permute the smaller
  density matrix with the Umeyama spectral correspondence, then as above.
  Permutation robust in practice but the pairwise matching is not
  transitive, so positive definiteness is still not guaranteed.

The Table IV row "QJSK" is the unaligned variant, matching ref. [41].
"""

from __future__ import annotations

import numpy as np

from repro.alignment.umeyama import permute_with, umeyama_correspondence
from repro.backend import EXACT
from repro.backend.policy import DEFAULT_CHUNK_ELEMENTS
from repro.graphs.graph import Graph
from repro.kernels.base import KernelTraits, PairwiseKernel
from repro.kernels.registry import register_kernel
from repro.quantum.density import graph_density_matrix, pad_density_matrix
from repro.quantum.divergence import QJSD_MAX, quantum_jensen_shannon_divergence
from repro.quantum.entropy import von_neumann_entropies, von_neumann_entropy
from repro.utils.linalg import eigh_sorted
from repro.utils.validation import check_in_range


def _padded_stack(states: "list[np.ndarray]", size: int) -> np.ndarray:
    """Stack density matrices zero-padded to a common ``(size, size)``."""
    stack = np.zeros((len(states), size, size))
    for index, state in enumerate(states):
        n = state.shape[0]
        stack[index, :n, :n] = state
    return stack


def _own_size_entropies(states: "list[np.ndarray]") -> np.ndarray:
    """Each density's von Neumann entropy at its own size, one stacked
    solve per distinct size."""
    sizes = np.asarray([state.shape[0] for state in states])
    out = np.empty(len(states))
    for size in np.unique(sizes):
        members = np.flatnonzero(sizes == size)
        out[members] = von_neumann_entropies(np.stack([states[i] for i in members]))
    return out


def _mixed_entropies_at_pair_edges(
    states_a: list,
    states_b: list,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
) -> np.ndarray:
    """Entropies of the mixed states ``(rho_idx_a[p] + sigma_idx_b[p]) / 2``.

    Each pair is padded to its own edge ``max(n_a, n_b)``, the serial
    oracle's padding, so its value depends on its two graphs alone and
    never on which graphs share its tile. Pairs of one edge share one
    :meth:`~repro.backend.ComputePolicy.mixed_entropies` call, over
    stacks of only the graphs they use.
    """
    sizes_a = np.asarray([state.shape[0] for state in states_a])
    sizes_b = np.asarray([state.shape[0] for state in states_b])
    edges = np.maximum(sizes_a[idx_a], sizes_b[idx_b])
    out = np.empty(idx_a.size)
    for edge in np.unique(edges):
        pairs = np.flatnonzero(edges == edge)
        rows_a, local_a = np.unique(idx_a[pairs], return_inverse=True)
        rows_b, local_b = np.unique(idx_b[pairs], return_inverse=True)
        stack_a = _padded_stack([states_a[i] for i in rows_a], edge)
        stack_b = _padded_stack([states_b[i] for i in rows_b], edge)
        out[pairs] = EXACT.mixed_entropies(
            stack_a, stack_b, local_a, local_b, symmetrize=True
        )
    return out


_QJSK_TRAITS = KernelTraits(
    framework="Information Theory",
    positive_definite=False,
    aligned=False,
    transitive=False,
    structure_patterns=("Global (Entropy)",),
    computing_model="Quantum Walks",
    captures_local=False,
    captures_global=True,
    notes="paper Section II-D; indefinite",
)


@register_kernel("QJSK", aliases=("qjsk-unaligned",))
class QJSKUnaligned(PairwiseKernel):
    """``k_QJSU(G_p, G_q) = exp(-mu * D_QJS(rho_p, rho_q))`` (Eq. 9)."""

    name = "QJSK"
    traits = _QJSK_TRAITS
    #: Prepared states are per-graph CTQW density matrices; padding is per
    #: pair — nothing about a pair's value sees the rest of the collection.
    collection_independent = True

    def __init__(self, mu: float = 1.0, *, hamiltonian: str = "laplacian") -> None:
        self.mu = check_in_range(mu, "mu", low=0.0, high=np.inf, low_inclusive=False)
        self.hamiltonian = hamiltonian

    def prepare(self, graphs: "list[Graph]") -> list:
        return [graph_density_matrix(g, hamiltonian=self.hamiltonian) for g in graphs]

    def pair_value(self, state_a, state_b) -> float:
        size = max(state_a.shape[0], state_b.shape[0])
        divergence = quantum_jensen_shannon_divergence(
            pad_density_matrix(state_a, size), pad_density_matrix(state_b, size)
        )
        return float(np.exp(-self.mu * divergence))

    def _values_for_pairs(
        self,
        states_a: list,
        states_b: list,
        idx_a: np.ndarray,
        idx_b: np.ndarray,
    ) -> np.ndarray:
        """Kernel values for the pair list ``(idx_a[p], idx_b[p])``.

        Zero padding leaves the von Neumann entropy unchanged (the extra
        eigenvalues are exact zeros and ``0 log 0 = 0``), so each graph's
        entropy is solved once at its own size and each mixed state at its
        pair's edge, batched by size: one stacked solve per mixed-state
        edge plus one per graph size, instead of ``3`` eigendecompositions
        per pair. No solve depends on the tile, so every tiling gives the
        same bytes.
        """
        entropies_a = _own_size_entropies(states_a)
        entropies_b = _own_size_entropies(states_b)
        divergence = (
            _mixed_entropies_at_pair_edges(states_a, states_b, idx_a, idx_b)
            - 0.5 * entropies_a[idx_a]
            - 0.5 * entropies_b[idx_b]
        )
        np.clip(divergence, 0.0, QJSD_MAX, out=divergence)
        return np.exp(-self.mu * divergence)

    def block_values(self, states_a: list, states_b: list) -> np.ndarray:
        """Vectorized rectangular tile (see :meth:`_values_for_pairs`)."""
        return self._rectangular_from_pairs(
            states_a, states_b, self._values_for_pairs
        )

    def symmetric_block_values(self, states: list) -> np.ndarray:
        """Diagonal tile batching only the upper triangle's mixed states."""
        return self._symmetric_from_pairs(states, self._values_for_pairs)


@register_kernel("QJSK-AL", aliases=("qjsk-aligned",))
class QJSKAligned(PairwiseKernel):
    """``k_QJSA`` (Eq. 11): Umeyama-align the density matrices first.

    The correspondence matrix ``Q`` comes from the Umeyama spectral method
    on the two density matrices (paper Section II-D); the smaller matrix is
    zero-padded before matching.
    """

    name = "QJSK(A)"
    traits = KernelTraits(
        framework="Information Theory",
        positive_definite=False,
        aligned=True,
        transitive=False,
        structure_patterns=("Global (Entropy)",),
        computing_model="Quantum Walks",
        captures_local=False,
        captures_global=True,
        notes="pairwise Umeyama alignment; not transitive, still indefinite",
    )
    #: Umeyama matching and padding both happen per pair.
    collection_independent = True

    def __init__(self, mu: float = 1.0, *, hamiltonian: str = "laplacian") -> None:
        self.mu = check_in_range(mu, "mu", low=0.0, high=np.inf, low_inclusive=False)
        self.hamiltonian = hamiltonian

    def prepare(self, graphs: "list[Graph]") -> list:
        return [graph_density_matrix(g, hamiltonian=self.hamiltonian) for g in graphs]

    def pair_value(self, state_a, state_b) -> float:
        size = max(state_a.shape[0], state_b.shape[0])
        rho_p = pad_density_matrix(state_a, size)
        rho_q = pad_density_matrix(state_b, size)
        q_matrix = umeyama_correspondence(rho_p, rho_q)
        aligned_q = permute_with(rho_q, q_matrix)
        divergence = quantum_jensen_shannon_divergence(rho_p, aligned_q)
        return float(np.exp(-self.mu * divergence))

    def _values_into(
        self, matrix: np.ndarray, states_a: list, states_b: list, pairs
    ) -> None:
        """Fill ``matrix[i, j]`` for every ``(i, j)`` in ``pairs``.

        The Umeyama matching itself stays per pair (a Hungarian solve on
        the pair's similarity), and crucially keeps the *per-pair*
        padding size — zero-padding enlarges the null space, and a
        different basis in that degenerate subspace could flip the
        matching, changing the kernel value beyond round-off. What is
        shared and batched: each state's padded eigendecomposition and
        entropy are computed once per (state, size) instead of once per
        pair, and all mixed-state entropies of a common size are solved
        with stacked ``eigvalsh`` calls.
        """
        from scipy.optimize import linear_sum_assignment

        cache: dict = {}

        # (padded matrix, |eigenvectors|, entropy) per (state, pad size).
        def prepared(state, size):
            key = (id(state), size)
            if key not in cache:
                padded = pad_density_matrix(state, size)
                _, vectors = eigh_sorted(padded)
                cache[key] = (padded, np.abs(vectors), von_neumann_entropy(padded))
            return cache[key]

        mixed_by_size: dict = {}
        slots_by_size: dict = {}
        base_by_size: dict = {}
        for i, j in pairs:
            state_a, state_b = states_a[i], states_b[j]
            size = max(state_a.shape[0], state_b.shape[0])
            rho_p, abs_u_p, entropy_p = prepared(state_a, size)
            rho_q, abs_u_q, entropy_q = prepared(state_b, size)
            _, cols = linear_sum_assignment(-(abs_u_p @ abs_u_q.T))
            aligned_q = rho_q[np.ix_(cols, cols)]
            mixed_by_size.setdefault(size, []).append((rho_p + aligned_q) / 2.0)
            slots_by_size.setdefault(size, []).append((i, j))
            base_by_size.setdefault(size, []).append(0.5 * (entropy_p + entropy_q))

        for size, mixed in mixed_by_size.items():
            baselines = np.asarray(base_by_size[size])
            entropies = np.empty(len(mixed))
            chunk = max(1, DEFAULT_CHUNK_ELEMENTS // max(1, size * size))
            for start in range(0, len(mixed), chunk):
                stop = min(start + chunk, len(mixed))
                entropies[start:stop] = von_neumann_entropies(
                    np.stack(mixed[start:stop])
                )
            divergence = np.clip(entropies - baselines, 0.0, QJSD_MAX)
            pair_values = np.exp(-self.mu * divergence)
            for (i, j), value in zip(slots_by_size[size], pair_values):
                matrix[i, j] = value

    def block_values(self, states_a: list, states_b: list) -> np.ndarray:
        """Rectangular tile (see :meth:`_values_into`)."""
        n_a, n_b = len(states_a), len(states_b)
        values = np.empty((n_a, n_b))
        self._values_into(
            values,
            states_a,
            states_b,
            ((i, j) for i in range(n_a) for j in range(n_b)),
        )
        return values

    def symmetric_block_values(self, states: list) -> np.ndarray:
        """Diagonal tile: Hungarian solves for the upper triangle only."""
        n = len(states)
        matrix = np.zeros((n, n))
        self._values_into(
            matrix, states, states, ((i, j) for i in range(n) for j in range(i, n))
        )
        upper = np.triu(matrix)
        return upper + np.triu(matrix, 1).T
