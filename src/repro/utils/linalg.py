"""Numerically-stable linear-algebra helpers used throughout the library.

The quantum substrate leans on symmetric eigendecompositions; these wrappers
centralise the tolerance policy (what counts as "zero", what counts as a
degenerate eigenvalue) so every module agrees on it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_square_matrix, check_symmetric_matrix

#: Default absolute tolerance for treating eigenvalues as equal/zero.
EIG_TOL = 1e-9


def symmetrize(stack: np.ndarray) -> np.ndarray:
    """``(A + A^T) / 2`` over the last two axes of a matrix (stack).

    The one symmetrisation everybody shares: :func:`eigh_sorted`, the
    batched entropies, and the pair stage's mixed states all wash out round-off
    asymmetry with exactly this arithmetic, so their eigenvalues agree
    bit-for-bit on the same input. Works on a single ``(n, n)`` matrix or
    any ``(..., n, n)`` stack; dtype is preserved.
    """
    return (stack + np.swapaxes(stack, -1, -2)) / 2.0


def eigh_sorted(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix, eigenvalues ascending.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as columns, the
    convention used by :func:`numpy.linalg.eigh`. The input is symmetrised
    first to wash out round-off asymmetry.
    """
    arr = check_square_matrix(matrix, "matrix")
    if arr.size == 0:
        return np.empty(0), np.empty((0, 0))
    values, vectors = np.linalg.eigh(symmetrize(arr))
    return values, vectors


def degenerate_run_starts(
    eigenvalues: np.ndarray, *, tol: float = EIG_TOL
) -> np.ndarray:
    """First index of each run of (numerically) equal sorted eigenvalues.

    A run breaks where consecutive eigenvalues differ by more than ``tol``
    scaled by the spectral magnitude, so each run is one eigenspace of the
    closed-form time-averaged density matrix (paper Eq. 5), where sums run
    over distinct eigenvalues. Empty input gives no runs.
    """
    values = np.asarray(eigenvalues, dtype=float)
    if values.ndim != 1:
        raise ValidationError(f"eigenvalues must be 1-D, got shape {values.shape}")
    if values.size == 0:
        return np.empty(0, dtype=np.intp)
    scale = max(1.0, float(np.max(np.abs(values))))
    breaks = np.flatnonzero(np.diff(values) > tol * scale) + 1
    return np.concatenate(([0], breaks))


def group_degenerate_eigenvalues(
    eigenvalues: np.ndarray, *, tol: float = EIG_TOL
) -> list[np.ndarray]:
    """Partition sorted eigenvalues into groups of (numerically) equal values.

    Returns one index array per run of :func:`degenerate_run_starts`.
    """
    starts = degenerate_run_starts(eigenvalues, tol=tol)
    if starts.size == 0:
        return []
    return np.split(np.arange(np.asarray(eigenvalues).size), starts[1:])


def is_symmetric(matrix: np.ndarray, *, tol: float = 1e-8) -> bool:
    """True if ``matrix`` is square and symmetric within ``tol``."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return False
    return bool(np.allclose(arr, arr.T, atol=tol))


def is_positive_semidefinite(matrix: np.ndarray, *, tol: float = 1e-7) -> bool:
    """True if the symmetric part of ``matrix`` has no eigenvalue below ``-tol``.

    The tolerance is scaled by the largest absolute eigenvalue so that large
    Gram matrices are judged relative to their own magnitude.
    """
    values, _ = eigh_sorted(matrix)
    if values.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(values))))
    return bool(values[0] >= -tol * scale)


def project_to_psd(matrix: np.ndarray, *, tol: float = 0.0) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone by clipping eigenvalues.

    Used to repair Gram matrices of indefinite kernels (e.g. the unaligned
    QJSK baseline) before handing them to the SVM, mirroring common practice
    in the graph-kernel literature.
    """
    values, vectors = eigh_sorted(matrix)
    if values.size == 0:
        return np.asarray(matrix, dtype=float).copy()
    clipped = np.clip(values, tol, None)
    return (vectors * clipped) @ vectors.T


def clip_to_psd(
    matrix: np.ndarray, *, check_tol: float = 1e-7, clip_floor: float = 0.0
) -> np.ndarray:
    """PSD check and (only if needed) projection from a single eigendecomposition.

    Behaviourally identical to ``project_to_psd(m) if not
    is_positive_semidefinite(m) else m`` — same relative-tolerance check,
    same clipped reconstruction — but the spectrum is computed once and
    reused for both the check and the projection, instead of two full
    ``eigh`` calls on the same matrix. Already-PSD inputs are returned
    unchanged (not reconstructed), so their entries are preserved exactly.
    """
    values, vectors = eigh_sorted(matrix)
    arr = np.asarray(matrix, dtype=float)
    if values.size == 0:
        return arr.copy()
    scale = max(1.0, float(np.max(np.abs(values))))
    if values[0] >= -check_tol * scale:
        return arr
    clipped = np.clip(values, clip_floor, None)
    return (vectors * clipped) @ vectors.T


def safe_xlogx(values: np.ndarray) -> np.ndarray:
    """Elementwise ``x * log(x)`` with the convention ``0 log 0 = 0``.

    Small negative inputs (eigendecomposition round-off) are clipped to zero
    rather than producing NaNs.
    """
    arr = np.clip(np.asarray(values, dtype=float), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        product = arr * np.log(arr)
    return np.where(arr > 0.0, product, 0.0)


def normalized_trace_one(matrix: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Scale a PSD matrix to unit trace; identity/size fallback for zero trace."""
    arr = check_symmetric_matrix(matrix, name)
    trace = float(np.trace(arr))
    if trace <= EIG_TOL:
        n = arr.shape[0]
        if n == 0:
            return arr
        return np.eye(n) / n
    return arr / trace
