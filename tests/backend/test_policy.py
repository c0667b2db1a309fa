"""The one entropy path, bit for bit against the historical arithmetic."""

import numpy as np

from repro.backend import EXACT
from repro.quantum import von_neumann_entropies
from repro.utils.linalg import safe_xlogx


def _psd_stack(batch=16, m=12, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(batch, m, m))
    stack = np.matmul(raw, np.swapaxes(raw, -1, -2)) / m
    return stack / np.trace(stack, axis1=-2, axis2=-1)[:, None, None]


def _historical_entropies(stack):
    sym = (stack + np.swapaxes(stack, -1, -2)) / 2.0
    values = np.clip(np.linalg.eigvalsh(sym), 0.0, None)
    return -safe_xlogx(values).sum(axis=-1)


class TestEntropyDispatch:
    def test_reference_entropies_bitwise_stable(self):
        stack = _psd_stack()
        np.testing.assert_array_equal(
            von_neumann_entropies(stack), _historical_entropies(stack)
        )

    def test_reference_mixed_entropies_bitwise_stable(self):
        stack = _psd_stack()
        idx_a = np.array([0, 1, 2, 5, 9])
        idx_b = np.array([3, 3, 7, 0, 11])
        mixed = stack[idx_a] + stack[idx_b]
        mixed *= 0.5
        np.testing.assert_array_equal(
            EXACT.mixed_entropies(stack, stack, idx_a, idx_b),
            _historical_entropies(mixed),
        )
