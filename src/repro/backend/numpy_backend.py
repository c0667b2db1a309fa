"""The NumPy reference backend — always available, bit-stable at float64.

At ``precision="float64"`` with the ``eig`` entropy path, every method is
the historical hot-path arithmetic (same symmetrisation, same
``eigvalsh``, same ``safe_xlogx`` reduction). The policy may hand it
support-compressed principal submatrices instead of full-edge stacks
(:mod:`repro.backend.support`); those agree with the dense solve to
≤1e-12, and because each matrix is solved on its own, batched, process
and tiled Grams stay bitwise equal to each other under the default
policy.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend, register_backend
from repro.utils.linalg import safe_xlogx, symmetrize

_DTYPES = {"float64": np.float64, "float32": np.float32}


@register_backend
class NumpyBackend(ArrayBackend):
    """Plain ndarray implementation of the backend protocol."""

    name = "numpy"

    def asarray(self, array: np.ndarray, dtype: str) -> np.ndarray:
        return np.asarray(array, dtype=_DTYPES[dtype])

    def to_numpy(self, array) -> np.ndarray:
        return np.asarray(array)

    def symmetrize(self, stack: np.ndarray) -> np.ndarray:
        return symmetrize(stack)

    def eigvalsh(self, stack: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(stack)

    def take(self, stack: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return stack[indices]

    def mix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mixed = a + b
        mixed *= np.asarray(0.5, dtype=mixed.dtype)
        return mixed

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b)

    def add_scaled_identity(
        self, stack: np.ndarray, coefficients: np.ndarray
    ) -> np.ndarray:
        m = stack.shape[-1]
        out = stack.copy()
        flat = out.reshape(*out.shape[:-2], m * m)
        flat[..., :: m + 1] += np.asarray(coefficients, dtype=out.dtype)[..., None]
        return out

    def scale(self, stack: np.ndarray, factors: np.ndarray) -> np.ndarray:
        return stack * np.asarray(factors, dtype=stack.dtype)[..., None, None]

    def subtract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a - b

    def entropy_reduce(self, values: np.ndarray) -> np.ndarray:
        # float64 accumulation: reduce host-side after one upcast, so a
        # float32 eig path rounds only its eigenvalues, not the sum.
        return -safe_xlogx(values).sum(axis=-1)

    def trace(self, stack: np.ndarray) -> np.ndarray:
        m = stack.shape[-1]
        flat = stack.reshape(*stack.shape[:-2], m * m)
        return flat[..., :: m + 1].sum(axis=-1, dtype=np.float64)

    def pair_trace(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lead = a.shape[:-2]
        size = a.shape[-1] * a.shape[-2]
        # Batched dot through BLAS: one fused multiply-reduce per matrix.
        product = np.matmul(
            a.reshape(*lead, 1, size), b.reshape(*lead, size, 1)
        )
        return product.reshape(lead).astype(np.float64)

    def gershgorin(self, stack: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        m = stack.shape[-1]
        flat = stack.reshape(*stack.shape[:-2], m * m)
        diagonal = flat[..., :: m + 1].astype(np.float64)
        radius = np.abs(stack).sum(axis=-1, dtype=np.float64) - np.abs(diagonal)
        lo = (diagonal - radius).min(axis=-1)
        hi = (diagonal + radius).max(axis=-1)
        return lo, hi

    def zero_row_counts(self, stack: np.ndarray) -> np.ndarray:
        m = stack.shape[-1]
        flat = stack.reshape(*stack.shape[:-2], m * m)
        diagonal = flat[..., :: m + 1]
        radius = np.abs(stack).sum(axis=-1) - np.abs(diagonal)
        return ((diagonal == 0) & (radius == 0)).sum(axis=-1)

    def prefers_eig_free(self, m: int, precision: str) -> bool:
        # Measured on the reference box: float32 matmuls run ~3.5x faster
        # than float64 while LAPACK's float32 eigvalsh does not beat the
        # float64 solver at all, so the K matmuls of the Chebyshev path
        # only pay off in float32 and only once eig's m^3 dominates.
        return precision == "float32"

    def approx_chunk_elements(self, precision: str) -> int:
        # The recurrence is cache-bound, not flop-bound: at a 256k-element
        # sub-batch the K + 1 live float32 polynomial stacks (~1 MB each)
        # stay cache-resident, which is worth ~1.7x over whole-batch
        # evaluation at m ~ 26-64 (whole-batch barely ties eigvalsh).
        return 1 << 18
