"""The numpy primitives of the entropy path.

Mixing and symmetrising build the stacks; the eigensolver entropy
(``repro.backend.support``) turns them into float64 numbers.
"""

import numpy as np
import pytest

from repro.backend.policy import mix
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
