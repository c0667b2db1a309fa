"""Backend registry and selection-error tests.

Unknown backend names must raise a named
:class:`~repro.errors.BackendError` listing the registered backends.
"""

import numpy as np
import pytest

from repro.backend import (
    BACKENDS,
    available_backends,
    default_backend_name,
    resolve_backend,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.errors import BackendError, KernelError


class TestRegistry:
    def test_numpy_registered_and_always_usable(self):
        assert "numpy" in BACKENDS
        assert "numpy" in available_backends()
        assert isinstance(resolve_backend("numpy"), NumpyBackend)

    def test_resolve_none_uses_default(self):
        backend = resolve_backend(None)
        assert backend.name == default_backend_name()

    def test_resolve_default_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert default_backend_name() == "numpy"
        monkeypatch.delenv("REPRO_BACKEND")
        assert default_backend_name() == "numpy"

    def test_resolve_instance_passthrough(self):
        instance = resolve_backend("numpy")
        assert resolve_backend(instance) is instance

    def test_instances_cached(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")


class TestSelectionErrors:
    def test_unknown_name_raises_named_error_listing_backends(self):
        with pytest.raises(BackendError) as info:
            resolve_backend("tensorflow")
        message = str(info.value)
        assert "tensorflow" in message
        for name in available_backends():
            assert name in message

    def test_backend_error_is_a_kernel_error(self):
        assert issubclass(BackendError, KernelError)


class TestNumpyBackendPrimitives:
    """The reference implementation of the device protocol."""

    @pytest.fixture()
    def stack(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(5, 6, 6))
        sym = (raw + np.swapaxes(raw, -1, -2)) / 2.0
        return sym

    def test_symmetrize_matches_definition(self):
        backend = resolve_backend("numpy")
        raw = np.random.default_rng(0).normal(size=(4, 3, 3))
        expected = (raw + np.swapaxes(raw, -1, -2)) / 2.0
        np.testing.assert_array_equal(backend.symmetrize(raw), expected)

    def test_eigvalsh_matches_numpy(self, stack):
        backend = resolve_backend("numpy")
        device = backend.asarray(stack, "float64")
        np.testing.assert_array_equal(
            backend.eigvalsh(device), np.linalg.eigvalsh(stack)
        )

    def test_mix_matches_historical_halved_sum(self, stack):
        backend = resolve_backend("numpy")
        a, b = stack[:3], stack[2:]
        expected = a + b
        expected *= 0.5
        np.testing.assert_array_equal(backend.mix(a.copy(), b.copy()), expected)

    def test_trace_and_pair_trace(self, stack):
        backend = resolve_backend("numpy")
        np.testing.assert_allclose(
            backend.trace(stack),
            np.trace(stack, axis1=-2, axis2=-1),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            backend.pair_trace(stack, stack),
            (stack * stack).sum(axis=(-2, -1)),
            atol=1e-12,
        )

    def test_gershgorin_bounds_contain_spectrum(self, stack):
        backend = resolve_backend("numpy")
        lo, hi = backend.gershgorin(stack)
        values = np.linalg.eigvalsh(stack)
        assert (values.min(axis=-1) >= lo - 1e-12).all()
        assert (values.max(axis=-1) <= hi + 1e-12).all()

    def test_zero_row_counts(self):
        backend = resolve_backend("numpy")
        stack = np.zeros((2, 4, 4))
        stack[0, :2, :2] = np.eye(2)
        stack[1] = np.eye(4)
        np.testing.assert_array_equal(
            backend.zero_row_counts(stack), np.array([2, 0])
        )

    def test_float32_asarray_roundtrip(self, stack):
        backend = resolve_backend("numpy")
        device = backend.asarray(stack, "float32")
        assert device.dtype == np.float32
        host = backend.to_numpy(device)
        np.testing.assert_allclose(host, stack, atol=1e-6)

    def test_custom_backend_registration_is_isolated(self):
        from repro.backend import register_backend

        @register_backend
        class _ProbeBackend(NumpyBackend):
            name = "probe-test-backend"

        try:
            assert resolve_backend("probe-test-backend").name == (
                "probe-test-backend"
            )
        finally:
            BACKENDS.pop("probe-test-backend", None)
            from repro.backend.base import _INSTANCES

            _INSTANCES.pop("probe-test-backend", None)
