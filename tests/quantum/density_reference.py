"""The per-eigenspace Eq. 5 loop and its eigenvalue grouping loop, kept as
the reference for :func:`repro.quantum.density.ctqw_density_matrix` and
:func:`repro.utils.linalg.degenerate_run_starts`.

The library stacks every projection ``P_lambda psi_0`` as a column of
``Q`` and forms ``rho = Q Q^T`` in one product. That changes the
summation order, so it is a declared tier: every density must stay
within 1e-12 of this loop. The eigenspace runs must be the same groups.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantumError, ValidationError
from repro.quantum.operators import hamiltonian_from_adjacency
from repro.quantum.state import degree_initial_state
from repro.utils.linalg import EIG_TOL, eigh_sorted
from repro.utils.validation import check_symmetric_matrix


def group_degenerate_eigenvalues(
    eigenvalues: np.ndarray, *, tol: float = EIG_TOL
) -> list[np.ndarray]:
    """Partition sorted eigenvalues into groups of (numerically) equal values.

    Returns a list of index arrays; consecutive eigenvalues within ``tol``
    (scaled by the spectral magnitude) fall into the same group. This is the
    eigenspace bookkeeping behind the closed-form time-averaged density
    matrix (paper Eq. 5), where sums run over distinct eigenvalues.
    """
    values = np.asarray(eigenvalues, dtype=float)
    if values.ndim != 1:
        raise ValidationError(f"eigenvalues must be 1-D, got shape {values.shape}")
    n = values.size
    if n == 0:
        return []
    scale = max(1.0, float(np.max(np.abs(values))))
    threshold = tol * scale
    groups: list[np.ndarray] = []
    start = 0
    for i in range(1, n):
        if values[i] - values[i - 1] > threshold:
            groups.append(np.arange(start, i))
            start = i
    groups.append(np.arange(start, n))
    return groups


def reference_ctqw_density_matrix(
    adjacency: np.ndarray,
    *,
    hamiltonian: str = "laplacian",
    initial_state: "np.ndarray | None" = None,
    degeneracy_tol: float = EIG_TOL,
) -> np.ndarray:
    """Eq. 5 as one outer product per distinct eigenvalue."""
    arr = check_symmetric_matrix(adjacency, "adjacency")
    n = arr.shape[0]
    if n == 0:
        raise QuantumError("cannot build a density matrix on 0 vertices")
    if initial_state is None:
        psi0 = degree_initial_state(arr)
    else:
        psi0 = np.asarray(initial_state, dtype=float)
        if psi0.shape != (n,):
            raise QuantumError(
                f"initial_state must have shape ({n},), got {psi0.shape}"
            )
        norm = float(np.linalg.norm(psi0))
        if norm <= 0:
            raise QuantumError("initial_state must be non-zero")
        psi0 = psi0 / norm

    hamiltonian_matrix = hamiltonian_from_adjacency(arr, hamiltonian)
    eigenvalues, eigenvectors = eigh_sorted(hamiltonian_matrix)
    coefficients = eigenvectors.T @ psi0  # <phi_a | psi_0>

    rho = np.zeros((n, n))
    for group in group_degenerate_eigenvalues(eigenvalues, tol=degeneracy_tol):
        # P_lambda |psi0> = sum_{a in B_lambda} <phi_a|psi0> |phi_a>
        projected = eigenvectors[:, group] @ coefficients[group]
        rho += np.outer(projected, projected)
    rho = (rho + rho.T) / 2.0
    return rho
