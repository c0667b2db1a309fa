"""The numpy primitives under the compute policy.

Casting, mixing and symmetrising build the stacks; the eigensolver
entropy (``repro.backend.support``) and the Chebyshev reductions
(``repro.backend.chebyshev``) turn them into float64 numbers.
"""

import numpy as np
import pytest

from repro.backend.chebyshev import gershgorin, pair_trace, trace, zero_row_counts
from repro.backend.policy import as_precision, mix
from repro.backend.support import eig_entropies
from repro.utils.linalg import safe_xlogx, symmetrize


class TestPrimitives:
    @pytest.fixture()
    def stack(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(5, 6, 6))
        sym = (raw + np.swapaxes(raw, -1, -2)) / 2.0
        return sym

    def test_symmetrize_matches_definition(self):
        raw = np.random.default_rng(0).normal(size=(4, 3, 3))
        expected = (raw + np.swapaxes(raw, -1, -2)) / 2.0
        np.testing.assert_array_equal(symmetrize(raw), expected)

    def test_eig_entropies_match_numpy(self, stack):
        np.testing.assert_array_equal(
            eig_entropies(stack),
            -safe_xlogx(np.linalg.eigvalsh(stack)).sum(axis=-1),
        )

    def test_mix_matches_historical_halved_sum(self, stack):
        a, b = stack[:3], stack[2:]
        expected = a + b
        expected *= 0.5
        np.testing.assert_array_equal(mix(a.copy(), b.copy()), expected)

    def test_trace_and_pair_trace(self, stack):
        np.testing.assert_allclose(
            trace(stack),
            np.trace(stack, axis1=-2, axis2=-1),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            pair_trace(stack, stack),
            (stack * stack).sum(axis=(-2, -1)),
            atol=1e-12,
        )

    def test_reductions_return_float64_from_float32(self, stack):
        cast = as_precision(stack, "float32")
        lo, hi = gershgorin(cast)
        for reduced in (trace(cast), pair_trace(cast, cast), lo, hi,
                        eig_entropies(as_precision(np.abs(stack), "float32"))):
            assert reduced.dtype == np.float64

    def test_gershgorin_bounds_contain_spectrum(self, stack):
        lo, hi = gershgorin(stack)
        values = np.linalg.eigvalsh(stack)
        assert (values.min(axis=-1) >= lo - 1e-12).all()
        assert (values.max(axis=-1) <= hi + 1e-12).all()

    def test_zero_row_counts(self):
        stack = np.zeros((2, 4, 4))
        stack[0, :2, :2] = np.eye(2)
        stack[1] = np.eye(4)
        np.testing.assert_array_equal(zero_row_counts(stack), np.array([2, 0]))

    def test_float32_cast_roundtrip(self, stack):
        cast = as_precision(stack, "float32")
        assert cast.dtype == np.float32
        np.testing.assert_allclose(cast, stack, atol=1e-6)
        # float64 input at float64 is passed through, not copied.
        assert as_precision(stack, "float64") is stack
