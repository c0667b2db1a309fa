"""Quantum state helpers: initial CTQW states and state validation.

Following the paper (and ref. [32]), the CTQW starts in the pure state whose
amplitude at vertex ``u`` is the square root of the degree distribution:
``alpha_u(0) = sqrt(d_u / sum(d))``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantumError
from repro.utils.validation import check_symmetric_matrix

_NORM_TOL = 1e-8


def degree_initial_state(adjacency: np.ndarray) -> np.ndarray:
    """Initial amplitudes ``sqrt(d_u / sum(d))`` from a weighted adjacency.

    For an empty (edgeless) structure the degree distribution is undefined;
    we fall back to the uniform superposition, which keeps aligned structures
    with all-zero rows (prototypes no vertex maps to) well defined.
    """
    return degree_amplitudes(check_symmetric_matrix(adjacency, "adjacency"))


def degree_amplitudes(arr: np.ndarray) -> np.ndarray:
    """:func:`degree_initial_state` of an already validated symmetric
    float ndarray."""
    n = arr.shape[0]
    if n == 0:
        return np.empty(0)
    degrees = np.clip(arr.sum(axis=1), 0.0, None)
    total = float(degrees.sum())
    if total <= 0.0:
        return np.full(n, 1.0 / np.sqrt(n))
    return np.sqrt(degrees / total)


def uniform_initial_state(n: int) -> np.ndarray:
    """The uniform superposition over ``n`` basis states."""
    if n <= 0:
        return np.empty(0)
    return np.full(n, 1.0 / np.sqrt(n))


def check_state_vector(state: np.ndarray, *, name: str = "state") -> np.ndarray:
    """Validate a (complex) amplitude vector: 1-D, finite, unit norm."""
    arr = np.asarray(state)
    if arr.ndim != 1:
        raise QuantumError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise QuantumError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(np.asarray(arr).imag)):
        raise QuantumError(f"{name} contains non-finite amplitudes")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > _NORM_TOL * max(1.0, np.sqrt(arr.size)):
        raise QuantumError(f"{name} must have unit norm, got {norm}")
    return arr


def pure_state_density(state: np.ndarray) -> np.ndarray:
    """Outer product ``|psi><psi|`` of a validated state vector."""
    arr = check_state_vector(state)
    return np.outer(arr, np.conj(arr))
