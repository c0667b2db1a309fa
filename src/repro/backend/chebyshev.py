"""Eigenvalue-free von Neumann entropies via Chebyshev trace estimation.

``-tr(rho log rho)`` is a spectral sum of ``g(x) = -x log x``, so it can
be computed without eigenvalues from the traces of Chebyshev polynomials
of the (shifted-and-scaled) operator: interpolate ``g`` on the spectral
interval at the Gauss–Lobatto (Chebyshev extreme) points, then

    H(rho) = sum_k c_k * tr(T_k(B)),    B = (2 rho - (hi+lo) I) / (hi - lo)

with per-matrix spectral bounds ``[lo, hi]`` from Gershgorin discs
(clipped at zero — the states are PSD). The trace sequence needs only
``ceil(d/2)`` batched matmuls, not ``d``: products of stored polynomials
reach the higher orders through

    tr(T_i T_j) = (t_{i+j} + t_{|i-j|}) / 2,

so ``t_n`` for ``n > K`` costs one batched Frobenius dot. On CPUs this
trades one LAPACK ``syevd`` (which float32 does *not* accelerate) for
``K`` GEMMs (which float32 runs ~3.5x faster). Interpolation error at
the default degree is ~2e-3 per entropy (see the documented tolerance
tiers in the README); it halves roughly quadratically with the degree.

Zero-padded stacks are handled exactly: an all-zero row contributes an
exact zero eigenvalue whose true ``g`` value is 0, but the interpolant
generally has ``p(0) != 0`` — the correction subtracts ``z * p(0)`` for
the ``z`` detected zero rows per matrix, so padded and unpadded stacks
agree to interpolation error (the invariant the QJSK padding relies on).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import BackendError

#: Spectral intervals narrower than this are widened — an all-zero (or
#: otherwise spectrum-degenerate) matrix has lo == hi and the affine map
#: to [-1, 1] would divide by zero. g is ~0 on such an interval anyway.
_MIN_WIDTH = 1e-12


@lru_cache(maxsize=None)
def _cos_matrix(degree: int) -> np.ndarray:
    """``C[k, j] = cos(pi * k * j / degree)`` — nodes row 1, DCT weights."""
    j = np.arange(degree + 1)
    return np.cos(np.pi * np.outer(j, j) / degree)


def _lobatto_coefficients(
    mid: np.ndarray, half: np.ndarray, degree: int
) -> np.ndarray:
    """Per-matrix Chebyshev coefficients of ``-x log x`` on ``[lo, hi]``.

    Interpolation at the degree+1 Gauss–Lobatto points via the type-I
    DCT (Clenshaw–Curtis weights); always float64 — the coefficient
    math is O(batch * degree^2), whatever the stack's precision.
    """
    cosines = _cos_matrix(degree)
    xs = mid[..., None] + half[..., None] * cosines[1]
    np.clip(xs, 0.0, None, out=xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(xs > 0.0, -xs * np.log(xs), 0.0)
    weights = np.ones(degree + 1)
    weights[0] = weights[-1] = 0.5
    coefficients = (2.0 / degree) * ((f * weights) @ cosines)
    coefficients[..., 0] *= 0.5
    coefficients[..., -1] *= 0.5
    return coefficients


# --------------------------------------------------------------------- #
# Reductions (stack in, float64 out)
# --------------------------------------------------------------------- #


def trace(stack: np.ndarray) -> np.ndarray:
    """Batched trace over the last two axes, float64."""
    m = stack.shape[-1]
    flat = stack.reshape(*stack.shape[:-2], m * m)
    return flat[..., :: m + 1].sum(axis=-1, dtype=np.float64)


def pair_trace(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``tr(A_i B_i)`` for symmetric pairs — ``sum(A * B)`` over the last
    two axes — float64."""
    lead = a.shape[:-2]
    size = a.shape[-1] * a.shape[-2]
    # Batched dot through BLAS: one fused multiply-reduce per matrix.
    product = np.matmul(a.reshape(*lead, 1, size), b.reshape(*lead, size, 1))
    return product.reshape(lead).astype(np.float64)


def gershgorin(stack: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Per-matrix Gershgorin spectral bounds ``(lo, hi)``.

    ``lo = min_i(d_i - r_i)``, ``hi = max_i(d_i + r_i)`` with ``d`` the
    diagonal and ``r`` the off-diagonal absolute row sums; both float64
    arrays over the batch shape.
    """
    m = stack.shape[-1]
    flat = stack.reshape(*stack.shape[:-2], m * m)
    diagonal = flat[..., :: m + 1].astype(np.float64)
    radius = np.abs(stack).sum(axis=-1, dtype=np.float64) - np.abs(diagonal)
    lo = (diagonal - radius).min(axis=-1)
    hi = (diagonal + radius).max(axis=-1)
    return lo, hi


def zero_row_counts(stack: np.ndarray) -> np.ndarray:
    """Per-matrix count of exactly-zero rows (int array).

    Zero-padded stacks carry exact-zero rows whose eigenvalues are exact
    zeros; :func:`chebyshev_entropies` corrects for the polynomial's
    value at zero on them.
    """
    m = stack.shape[-1]
    flat = stack.reshape(*stack.shape[:-2], m * m)
    diagonal = flat[..., :: m + 1]
    radius = np.abs(stack).sum(axis=-1) - np.abs(diagonal)
    return ((diagonal == 0) & (radius == 0)).sum(axis=-1)


def _shift_diagonal(stack: np.ndarray, coefficients) -> np.ndarray:
    """``stack + diag(coefficients[..., None])`` — per-matrix shifts, cast
    to the stack's dtype (a copy; ``stack`` is untouched)."""
    m = stack.shape[-1]
    out = stack.copy()
    flat = out.reshape(*out.shape[:-2], m * m)
    flat[..., :: m + 1] += np.asarray(coefficients, dtype=out.dtype)[..., None]
    return out


def _scale(stack: np.ndarray, factors) -> np.ndarray:
    """``stack * factors[..., None, None]`` — per-matrix scaling at the
    stack's dtype."""
    return stack * np.asarray(factors, dtype=stack.dtype)[..., None, None]


def chebyshev_entropies(stack: np.ndarray, degree: int) -> np.ndarray:
    """Batched ``-tr(rho log rho)`` of a symmetric ``stack``.

    ``stack`` has shape ``(..., m, m)`` at the compute precision
    (float64 or float32), symmetric (callers symmetrise first — same
    contract as ``eigvalsh``) and PSD up to round-off. Returns host
    float64 entropies of the batch shape. ``degree`` is the
    interpolation degree (>= 2).
    """
    if degree < 2:
        raise BackendError(
            f"chebyshev entropy degree must be >= 2, got {degree}"
        )
    m = int(stack.shape[-1])
    lo, hi = gershgorin(stack)
    lo = np.clip(lo, 0.0, None)
    hi = np.maximum(hi, lo + _MIN_WIDTH)
    mid = (hi + lo) / 2.0
    half = (hi - lo) / 2.0
    coefficients = _lobatto_coefficients(mid, half, degree)

    # B = (rho - mid I) / half, spectrum in [-1, 1].
    base = _scale(_shift_diagonal(stack, -mid), 1.0 / half)

    # Traces t_k = tr T_k(B) for k <= K from the three-term recurrence,
    # keeping the polynomial matrices; the tail k in (K, degree] comes
    # from pair traces of stored polynomials (module docstring).
    order = (degree + 1) // 2
    traces = np.empty((*np.shape(mid), degree + 1))
    traces[..., 0] = m
    traces[..., 1] = trace(base)
    polynomials = [None, base]
    two = np.asarray(2.0)
    for k in range(2, order + 1):
        doubled = _scale(np.matmul(base, polynomials[-1]), two)
        if k == 2:
            nxt = _shift_diagonal(doubled, np.asarray(-1.0))
        else:
            nxt = doubled - polynomials[-2]
        polynomials.append(nxt)
        traces[..., k] = trace(nxt)
    for n in range(order + 1, degree + 1):
        i = n // 2
        j = n - i
        pair = pair_trace(polynomials[i], polynomials[j])
        traces[..., n] = 2.0 * pair - traces[..., j - i]

    entropies = np.einsum("...k,...k->...", coefficients, traces)

    # Exact-zero padding rows: remove the interpolant's value at 0 once
    # per zero eigenvalue (g(0) = 0 but p(0) generally is not).
    zero_rows = zero_row_counts(stack)
    if np.any(zero_rows):
        x0 = np.clip(-mid / half, -1.0, 1.0)
        angles = np.arccos(x0)
        orders = np.arange(degree + 1)
        p0 = (coefficients * np.cos(orders * angles[..., None])).sum(axis=-1)
        entropies = entropies - zero_rows * p0
    return np.asarray(entropies, dtype=np.float64)
