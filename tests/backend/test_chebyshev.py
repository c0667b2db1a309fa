"""Accuracy tests for the eigenvalue-free Chebyshev entropy path."""

import numpy as np
import pytest

from repro.backend import chebyshev_entropies
from repro.errors import BackendError
from repro.utils.linalg import safe_xlogx


def _psd_stack(batch=32, m=20, seed=1):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(batch, m, m))
    stack = np.matmul(raw, np.swapaxes(raw, -1, -2)) / m
    return stack / np.trace(stack, axis1=-2, axis2=-1)[:, None, None]


def _exact(stack):
    values = np.clip(np.linalg.eigvalsh(stack), 0.0, None)
    return -safe_xlogx(values).sum(axis=-1)


class TestChebyshevAccuracy:
    def test_default_degree_within_documented_tier(self):
        stack = _psd_stack()
        approx = chebyshev_entropies(stack, 16)
        np.testing.assert_allclose(approx, _exact(stack), atol=1e-2)

    def test_error_shrinks_with_degree(self):
        stack = _psd_stack()
        exact = _exact(stack)
        errors = [
            np.abs(chebyshev_entropies(stack, d) - exact).max()
            for d in (8, 16, 32)
        ]
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]
        assert errors[2] < 5e-4

    def test_float32_stack_within_tier(self):
        stack = _psd_stack()
        approx = chebyshev_entropies(stack.astype(np.float32), 16)
        assert approx.dtype == np.float64
        np.testing.assert_allclose(approx, _exact(stack), atol=1e-2)

    def test_padded_zero_rows_match_unpadded(self):
        # The QJSK invariant: zero-padding a density matrix must not move
        # its entropy. The correction term makes padded and unpadded
        # stacks agree to interpolation error, not just to p(0) drift.
        stack = _psd_stack(batch=8, m=12)
        padded = np.zeros((8, 20, 20))
        padded[:, :12, :12] = stack
        direct = chebyshev_entropies(stack, 24)
        via_pad = chebyshev_entropies(padded, 24)
        np.testing.assert_allclose(via_pad, direct, atol=1e-3)
        np.testing.assert_allclose(via_pad, _exact(stack), atol=1e-3)

    def test_pure_state_entropy_near_zero(self):
        # A rank-one projector has entropy exactly 0.
        v = np.ones(16) / 4.0
        rho = np.outer(v, v)[None]
        approx = chebyshev_entropies(rho, 16)
        assert abs(float(approx[0])) < 2e-2

    def test_maximally_mixed_state_exact_regime(self):
        m = 16
        rho = (np.eye(m) / m)[None]
        approx = chebyshev_entropies(rho, 16)
        np.testing.assert_allclose(approx, [np.log(m)], atol=1e-6)

    def test_all_zero_matrix_entropy_zero(self):
        stack = np.zeros((3, 10, 10))
        approx = chebyshev_entropies(stack, 16)
        np.testing.assert_allclose(approx, np.zeros(3), atol=1e-10)

    def test_degenerate_degree_rejected(self):
        with pytest.raises(BackendError, match="degree"):
            chebyshev_entropies(_psd_stack(batch=2, m=4), 1)
