"""Umeyama-style spectral vertex matching (paper Section II-D, ref. [38]).

The *aligned* QJSK baseline ``k_QJSA`` permutes the smaller graph's density
matrix to maximise agreement before the QJSD. Following Umeyama (1988), the
correspondence is recovered from the eigenvector matrices of the two
operators: maximise ``tr(Qᵀ |U_p||U_q|ᵀ)`` over permutation-like matrices
``Q``, solved exactly as a linear assignment problem.

This matching is pairwise and therefore *not transitive* — exactly the
defect (paper Section II-D remarks) that the hierarchical prototype
alignment of HAQJSK removes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlignmentError
from repro.utils.linalg import eigh_sorted
from repro.utils.validation import check_symmetric_matrix


def umeyama_similarity(matrix_p: np.ndarray, matrix_q: np.ndarray) -> np.ndarray:
    """The Umeyama similarity ``|U_p| |U_q|ᵀ`` between two operators.

    Both inputs must be symmetric; the smaller one is zero-padded so the
    eigenvector matrices share a common dimension.
    """
    p = check_symmetric_matrix(matrix_p, "matrix_p")
    q = check_symmetric_matrix(matrix_q, "matrix_q")
    size = max(p.shape[0], q.shape[0])
    p_pad = _pad(p, size)
    q_pad = _pad(q, size)
    _, u_p = eigh_sorted(p_pad)
    _, u_q = eigh_sorted(q_pad)
    return np.abs(u_p) @ np.abs(u_q).T


def umeyama_correspondence(
    matrix_p: np.ndarray, matrix_q: np.ndarray
) -> np.ndarray:
    """Permutation matrix ``Q`` aligning q's indices onto p's.

    ``Q[i, j] = 1`` means index ``j`` of (padded) ``matrix_q`` is matched to
    index ``i`` of (padded) ``matrix_p``. Solved optimally with the
    Hungarian algorithm on the Umeyama similarity.
    """
    from scipy.optimize import linear_sum_assignment

    similarity = umeyama_similarity(matrix_p, matrix_q)
    rows, cols = linear_sum_assignment(-similarity)
    size = similarity.shape[0]
    q_matrix = np.zeros((size, size))
    q_matrix[rows, cols] = 1.0
    return q_matrix


def permute_with(matrix: np.ndarray, permutation: np.ndarray) -> np.ndarray:
    """Apply ``Q M Qᵀ`` (zero-padding ``M`` up to Q's size first)."""
    q = np.asarray(permutation, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise AlignmentError(f"permutation must be square, got {q.shape}")
    m = check_symmetric_matrix(matrix, "matrix")
    padded = _pad(m, q.shape[0])
    return q @ padded @ q.T


def _pad(matrix: np.ndarray, size: int) -> np.ndarray:
    n = matrix.shape[0]
    if n == size:
        return matrix
    if n > size:
        raise AlignmentError(f"cannot pad {n}x{n} down to {size}x{size}")
    out = np.zeros((size, size))
    out[:n, :n] = matrix
    return out
