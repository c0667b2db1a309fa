"""Time-averaged CTQW density matrices (paper Eq. 4/5).

The mixed state of a CTQW observed uniformly over ``[0, T]`` is

    rho_T = (1/T) \\int_0^T |psi_t><psi_t| dt.

As ``T -> inf`` the cross terms between *distinct* Hamiltonian eigenvalues
dephase to zero and the closed form of Eq. (5) remains:

    rho_inf = sum_lambda P_lambda |psi_0><psi_0| P_lambda,

where ``P_lambda`` projects onto the eigenspace of ``lambda``. For a real
symmetric Hamiltonian and real initial amplitudes this matrix is real,
symmetric, positive semidefinite and has unit trace — i.e. it is a proper
density matrix, which :func:`check_density_matrix` enforces.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotDensityMatrixError, QuantumError
from repro.graphs.graph import Graph
from repro.quantum.operators import registered_hamiltonian
from repro.quantum.state import degree_amplitudes
from repro.utils.linalg import (
    EIG_TOL,
    degenerate_run_starts,
    eigh_sorted,
    symmetrize,
)
from repro.utils.validation import check_symmetric_matrix

_DENSITY_TOL = 1e-7


def ctqw_density_matrix(
    adjacency: np.ndarray,
    *,
    hamiltonian: str = "laplacian",
    initial_state: "np.ndarray | None" = None,
    degeneracy_tol: float = EIG_TOL,
) -> np.ndarray:
    """The ``T -> inf`` time-averaged CTQW density matrix (Eq. 5).

    Parameters
    ----------
    adjacency:
        Symmetric non-negative structure matrix (a graph adjacency or an
        aligned adjacency from :mod:`repro.alignment.transform`).
    hamiltonian:
        Operator driving the walk; the paper uses the Laplacian.
    initial_state:
        Real amplitude vector at ``t = 0``; defaults to
        ``sqrt(degree distribution)`` per the paper.
    degeneracy_tol:
        Eigenvalues closer than this (relative to spectral magnitude) are
        treated as one eigenspace, which is what makes the closed form exact
        for degenerate spectra.

    The eigenspaces of the sorted spectrum are contiguous runs, so the
    projections ``P_lambda psi_0`` are one ``np.add.reduceat`` of the
    coefficient-scaled eigenvectors over the run starts. Stacked as the
    columns of ``Q`` they give ``rho = Q Q^T`` in one product, which equals
    the per-eigenspace sum of outer products up to summation order (within
    1e-12; the loop is kept in ``tests/quantum/density_reference.py``).
    """
    arr = check_symmetric_matrix(adjacency, "adjacency")
    n = arr.shape[0]
    if n == 0:
        raise QuantumError("cannot build a density matrix on 0 vertices")
    if initial_state is None:
        psi0 = degree_amplitudes(arr)
    else:
        psi0 = np.asarray(initial_state, dtype=float)
        if psi0.shape != (n,):
            raise QuantumError(
                f"initial_state must have shape ({n},), got {psi0.shape}"
            )
        if not np.all(np.isfinite(psi0)):
            raise QuantumError("initial_state contains non-finite amplitudes")
        norm = float(np.linalg.norm(psi0))
        if norm <= 0:
            raise QuantumError("initial_state must be non-zero")
        psi0 = psi0 / norm

    hamiltonian_matrix = registered_hamiltonian(hamiltonian)(arr)
    eigenvalues, eigenvectors = np.linalg.eigh(symmetrize(hamiltonian_matrix))
    coefficients = eigenvectors.T @ psi0  # <phi_a | psi_0>
    # Column g of Q is P_g |psi0> = sum_{a in run g} <phi_a|psi0> |phi_a>.
    starts = degenerate_run_starts(eigenvalues, tol=degeneracy_tol)
    q = np.add.reduceat(eigenvectors * coefficients, starts, axis=1)
    return symmetrize(q @ q.T)


def graph_density_matrix(graph: Graph, **kwargs) -> np.ndarray:
    """Eq. 5 density matrix of a :class:`Graph` with paper defaults."""
    return ctqw_density_matrix(graph.adjacency, **kwargs)


def finite_time_density_matrix(
    adjacency: np.ndarray,
    horizon: float,
    *,
    steps: int = 400,
    hamiltonian: str = "laplacian",
    initial_state: "np.ndarray | None" = None,
) -> np.ndarray:
    """Numerically integrate Eq. (4) on ``[0, horizon]`` (trapezoid rule).

    Exists to validate the closed form: as ``horizon`` grows this converges
    to :func:`ctqw_density_matrix`. Returns a real symmetric matrix (the
    imaginary parts of the average cancel for real ``psi_0``).
    """
    from repro.quantum.ctqw import CTQW

    if horizon <= 0:
        raise QuantumError(f"horizon must be > 0, got {horizon}")
    if steps < 2:
        raise QuantumError(f"steps must be >= 2, got {steps}")
    walk = CTQW(adjacency, hamiltonian=hamiltonian, initial_state=initial_state)
    times = np.linspace(0.0, horizon, steps)
    accumulator = np.zeros((walk.n_vertices, walk.n_vertices), dtype=complex)
    samples = []
    for t in times:
        state = walk.state_at(t)
        samples.append(np.outer(state, np.conj(state)))
    stacked = np.stack(samples)
    accumulator = np.trapezoid(stacked, times, axis=0) / horizon
    rho = accumulator.real
    return (rho + rho.T) / 2.0


def check_density_matrix(
    matrix: np.ndarray, *, name: str = "rho", tol: float = _DENSITY_TOL
) -> np.ndarray:
    """Validate that ``matrix`` is a density matrix (symmetric, PSD, trace 1)."""
    arr = check_symmetric_matrix(matrix, name)
    if arr.shape[0] == 0:
        raise NotDensityMatrixError(f"{name} is empty")
    trace = float(np.trace(arr))
    if abs(trace - 1.0) > tol * arr.shape[0]:
        raise NotDensityMatrixError(f"{name} must have unit trace, got {trace}")
    eigenvalues, _ = eigh_sorted(arr)
    if eigenvalues[0] < -tol:
        raise NotDensityMatrixError(
            f"{name} is not PSD (min eigenvalue {eigenvalues[0]:.3e})"
        )
    return arr


def purity(matrix: np.ndarray) -> float:
    """``tr(rho^2)`` — 1 for pure states, ``1/n`` for the maximally mixed."""
    arr = check_symmetric_matrix(matrix, "rho")
    return float(np.sum(arr * arr))


def mix_density_matrices(
    matrices: "list[np.ndarray]", weights: "list[float] | None" = None
) -> np.ndarray:
    """Convex mixture of equally-sized density matrices.

    The QJSD composite state ``(rho + sigma) / 2`` is the two-element case.
    """
    if not matrices:
        raise QuantumError("need at least one density matrix to mix")
    n = np.asarray(matrices[0]).shape[0]
    if weights is None:
        weights = [1.0 / len(matrices)] * len(matrices)
    if len(weights) != len(matrices):
        raise QuantumError("weights and matrices must have equal length")
    total = float(sum(weights))
    if total <= 0 or any(w < 0 for w in weights):
        raise QuantumError("weights must be non-negative and sum to > 0")
    out = np.zeros((n, n))
    for weight, matrix in zip(weights, matrices):
        arr = check_symmetric_matrix(matrix, "rho")
        if arr.shape[0] != n:
            raise QuantumError("density matrices must share a common size")
        out += (weight / total) * arr
    return out


def pad_density_matrix(matrix: np.ndarray, size: int) -> np.ndarray:
    """Zero-pad a density matrix to ``size x size`` (paper Section II-D).

    Padding with zero rows/columns preserves trace and PSD-ness; it is how
    the unaligned QJSK baseline compares graphs of different orders.
    """
    arr = check_symmetric_matrix(matrix, "rho")
    n = arr.shape[0]
    if size < n:
        raise QuantumError(f"cannot pad {n}x{n} density matrix down to {size}")
    if size == n:
        return arr.copy()
    out = np.zeros((size, size))
    out[:n, :n] = arr
    return out
