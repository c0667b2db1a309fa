"""Entropies of quantum states and probability vectors.

Implements the von Neumann entropy (paper Eq. 6/7), its Rényi and Tsallis
generalisations (used by the SPEGK and JTQK baselines), and the classical
Shannon entropy used by the depth-based vertex representations.

All logarithms are natural, matching Eq. (6); entropies are reported in nats.
"""

from __future__ import annotations

import numpy as np

from repro.backend import DEFAULT_CHEBYSHEV_DEGREE, ComputePolicy, active_policy
from repro.errors import QuantumError
from repro.utils.linalg import eigh_sorted, safe_xlogx
from repro.utils.validation import check_in_range, check_symmetric_matrix

_EIG_CLIP = 0.0

#: Slack on ``sum(p)`` under which a distribution counts as normalised —
#: the :func:`shannon_entropy` fast path skips the clip-and-divide pass.
_CLEAN_TOTAL_TOL = 1e-12


def density_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density-like matrix, clipped to ``[0, inf)``.

    Round-off from the eigensolver can produce tiny negative values on PSD
    input; clipping keeps the entropy well defined without masking genuinely
    indefinite matrices (validation happens in
    :func:`repro.quantum.density.check_density_matrix`).
    """
    arr = check_symmetric_matrix(matrix, "rho")
    values, _ = eigh_sorted(arr)
    return np.clip(values, _EIG_CLIP, None)


def von_neumann_entropy(matrix: np.ndarray) -> float:
    """``H_N(rho) = -tr(rho log rho)`` via the eigenvalues (Eq. 6/7)."""
    values = density_eigenvalues(matrix)
    return float(-np.sum(safe_xlogx(values)))


def von_neumann_entropies(stack: np.ndarray, *, policy=None) -> np.ndarray:
    """Batched von Neumann entropies over a ``(..., n, n)`` matrix stack.

    The hot-path counterpart of :func:`von_neumann_entropy` used by the
    vectorized Gram engines (:mod:`repro.engine`): one stacked
    ``eigvalsh`` replaces a Python loop of per-matrix decompositions.
    Inputs are symmetrised exactly like :func:`repro.utils.linalg.eigh_sorted`
    so a stacked call agrees with the scalar path to solver round-off.

    ``policy`` selects the compute precision and entropy path
    (:class:`repro.backend.ComputePolicy`); ``None`` uses the ambient
    :func:`repro.backend.active_policy`, which defaults to the bit-stable
    float64/eig reference.
    """
    arr = np.asarray(stack, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise QuantumError(
            f"expected a (..., n, n) stack of square matrices, got {arr.shape}"
        )
    if policy is None:
        policy = active_policy()
    return policy.entropies(arr, symmetrize=True)


def von_neumann_entropies_approx(
    stack: np.ndarray,
    *,
    degree: "int | None" = None,
    precision: str = "float32",
) -> np.ndarray:
    """Eigenvalue-free batched von Neumann entropies (Chebyshev path).

    Forces the :mod:`repro.backend.chebyshev` trace-estimation path
    regardless of the ambient policy — the explicit entry point for the
    documented approximate tolerance tier. ``degree`` defaults to
    :data:`repro.backend.DEFAULT_CHEBYSHEV_DEGREE` (~2e-3 max absolute
    entropy error); raise it to tighten the approximation.
    """
    arr = np.asarray(stack, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise QuantumError(
            f"expected a (..., n, n) stack of square matrices, got {arr.shape}"
        )
    policy = ComputePolicy(
        precision=precision,
        entropy="chebyshev",
        chebyshev_degree=DEFAULT_CHEBYSHEV_DEGREE if degree is None else degree,
    )
    return policy.entropies(arr, symmetrize=True)


def shannon_entropy(probabilities: np.ndarray) -> float:
    """Shannon entropy of a probability vector (natural log, 0 log 0 = 0)."""
    arr = np.asarray(probabilities, dtype=float)
    if arr.ndim != 1:
        raise QuantumError(f"probabilities must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        return 0.0
    if np.any(arr < -1e-9):
        raise QuantumError("probabilities must be non-negative")
    total = float(arr.sum())
    if total <= 0:
        return 0.0
    if arr.min() >= 0.0 and abs(total - 1.0) <= _CLEAN_TOTAL_TOL:
        # Already a clean distribution: skip the clip-and-renormalise
        # pass entirely (the common case on the depth-based hot path).
        return float(-np.sum(safe_xlogx(arr)))
    normalised = np.clip(arr, 0.0, None) / total
    return float(-np.sum(safe_xlogx(normalised)))


def shannon_entropies(weights: np.ndarray) -> np.ndarray:
    """Batched Shannon entropies over the last axis of ``(..., n)`` weights.

    Each row is treated like :func:`shannon_entropy` treats its vector:
    negatives are clipped at zero, rows are normalised by their mass, and
    zero-mass rows get entropy 0 — but the whole batch normalises in one
    vectorised pass (the depth-based representations feed ``(B, levels)``
    degree-mass rows through this).
    """
    arr = np.asarray(weights, dtype=float)
    if arr.ndim < 1:
        raise QuantumError(f"weights must be at least 1-D, got shape {arr.shape}")
    if arr.size == 0:
        return np.zeros(arr.shape[:-1])
    if np.any(arr < -1e-9):
        raise QuantumError("weights must be non-negative")
    clipped = np.clip(arr, 0.0, None)
    totals = clipped.sum(axis=-1, keepdims=True)
    safe_totals = np.where(totals > 0.0, totals, 1.0)
    normalised = clipped / safe_totals
    # + 0.0 canonicalises the -0.0 a zero-mass row would otherwise yield.
    return -safe_xlogx(normalised).sum(axis=-1) + 0.0


def renyi_entropy(matrix: np.ndarray, alpha: float = 2.0) -> float:
    """Quantum Rényi entropy ``(1 - alpha)^-1 log tr(rho^alpha)``.

    ``alpha -> 1`` recovers von Neumann; ``alpha = 2`` is the second-order
    entropy used by the SPEGK/SREGK baseline (ref. [25]).
    """
    alpha = check_in_range(alpha, "alpha", low=0.0, high=np.inf, low_inclusive=False)
    if abs(alpha - 1.0) < 1e-12:
        return von_neumann_entropy(matrix)
    values = density_eigenvalues(matrix)
    total = float(values.sum())
    if total <= 0:
        return 0.0
    values = values / total
    power_sum = float(np.sum(values[values > 0] ** alpha))
    if power_sum <= 0:
        return 0.0
    return float(np.log(power_sum) / (1.0 - alpha))


def tsallis_entropy(matrix: np.ndarray, q: float = 2.0) -> float:
    """Quantum Tsallis entropy ``(1 - tr(rho^q)) / (q - 1)``.

    ``q = 2`` is the setting the JTQK baseline uses (ref. [44]).
    """
    q = check_in_range(q, "q", low=0.0, high=np.inf, low_inclusive=False)
    if abs(q - 1.0) < 1e-12:
        return von_neumann_entropy(matrix)
    values = density_eigenvalues(matrix)
    total = float(values.sum())
    if total <= 0:
        return 0.0
    values = values / total
    power_sum = float(np.sum(values[values > 0] ** q))
    return float((1.0 - power_sum) / (q - 1.0))


def graph_von_neumann_entropy(graph, **density_kwargs) -> float:
    """Von Neumann entropy of a graph's CTQW mixed state (Eq. 7)."""
    from repro.quantum.density import graph_density_matrix

    return von_neumann_entropy(graph_density_matrix(graph, **density_kwargs))
