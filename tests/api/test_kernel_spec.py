"""KernelSpec + registry: validation, JSON round-trips, lenient specs."""

from __future__ import annotations

import json

import pytest

from repro.errors import KernelError, KernelSpecError
from repro.kernels import (
    GraphKernel,
    HAQJSKKernelD,
    KernelSpec,
    WeisfeilerLehmanKernel,
    make,
    registered_kernels,
    supported_params,
)
from repro.kernels.registry import as_spec, full_scale, kernel_entry, lenient_spec


class TestRegistry:
    def test_table4_roster_registered(self):
        from repro.experiments.config import TABLE4_KERNELS

        names = registered_kernels()
        for name in TABLE4_KERNELS:
            assert name in names

    def test_lookup_is_case_insensitive(self):
        assert kernel_entry("wlsk").name == "WLSK"
        assert kernel_entry("HAQJSK(d)").name == "HAQJSK(D)"

    def test_aliases_resolve(self):
        assert kernel_entry("haqjsk-d").name == "HAQJSK(D)"
        assert kernel_entry("core-wl").name == "CORE WL"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KernelSpecError) as excinfo:
            kernel_entry("NOT_A_KERNEL")
        message = str(excinfo.value)
        assert "NOT_A_KERNEL" in message
        assert "WLSK" in message and "HAQJSK(D)" in message

    def test_supported_params(self):
        assert "n_iterations" in supported_params("WLSK")
        assert "n_prototypes" in supported_params("HAQJSK(A)")
        # Non-JSON constructor objects are excluded from the spec surface.
        assert "extractor" not in supported_params("HAQJSK(A)")


class TestKernelSpec:
    def test_canonical_name(self):
        assert KernelSpec("wlsk").name == "WLSK"

    def test_frozen_and_hashable(self):
        spec = KernelSpec("WLSK", n_iterations=3)
        with pytest.raises(AttributeError):
            spec.name = "other"
        assert spec == KernelSpec("wlsk", {"n_iterations": 3})
        assert hash(spec) == hash(KernelSpec("WLSK", n_iterations=3))

    def test_unexpected_param_named_error(self):
        with pytest.raises(KernelSpecError) as excinfo:
            KernelSpec("WLSK", depth=5)
        message = str(excinfo.value)
        assert "depth" in message and "n_iterations" in message

    def test_unknown_kernel_named_error(self):
        with pytest.raises(KernelSpecError, match="registered kernels"):
            KernelSpec("nope")

    def test_non_json_param_rejected(self):
        with pytest.raises(KernelSpecError, match="JSON"):
            KernelSpec("WLSK", n_iterations=object())

    def test_json_round_trip(self):
        spec = KernelSpec("HAQJSK(D)", n_prototypes=8, seed=3)
        assert KernelSpec.from_json(spec.to_json()) == spec
        assert KernelSpec.from_dict(spec.to_dict()) == spec
        payload = json.loads(spec.to_json())
        assert payload["name"] == "HAQJSK(D)"
        assert payload["params"] == {"n_prototypes": 8, "seed": 3}

    def test_from_json_rejects_garbage(self):
        with pytest.raises(KernelSpecError, match="JSON"):
            KernelSpec.from_json("{not json")
        with pytest.raises(KernelSpecError):
            KernelSpec.from_dict({"params": {}})
        with pytest.raises(KernelSpecError, match="unexpected"):
            KernelSpec.from_dict({"name": "WLSK", "extra": 1})

    def test_from_json_rejects_unknown_kernel_and_params(self):
        with pytest.raises(KernelSpecError, match="registered kernels"):
            KernelSpec.from_json('{"name": "GHOST", "params": {}}')
        with pytest.raises(KernelSpecError, match="accepted parameters"):
            KernelSpec.from_json('{"name": "WLSK", "params": {"depth": 2}}')

    def test_resolved_pins_defaults(self):
        resolved = KernelSpec("WLSK").resolved()
        assert resolved.param_dict == {"n_iterations": 4}
        # Already-explicit params survive resolution untouched.
        explicit = KernelSpec("WLSK", n_iterations=9).resolved()
        assert explicit.param_dict == {"n_iterations": 9}

    def test_resolved_tracks_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert full_scale()
        assert KernelSpec("WLSK").resolved().param_dict == {"n_iterations": 10}
        monkeypatch.delenv("REPRO_FULL_SCALE")
        assert KernelSpec("WLSK").resolved().param_dict == {"n_iterations": 4}

    def test_fingerprint_stability(self):
        a = KernelSpec("JTQK")
        b = KernelSpec("JTQK", q=2.0, n_iterations=4).resolved()
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != KernelSpec("JTQK", q=3.0).fingerprint()

    def test_with_params(self):
        spec = KernelSpec("HAQJSK(D)", n_prototypes=8)
        grown = spec.with_params(seed=7)
        assert grown.param_dict == {"n_prototypes": 8, "seed": 7}
        assert spec.param_dict == {"n_prototypes": 8}

    def test_as_spec(self):
        spec = KernelSpec("WLSK")
        assert as_spec(spec) is spec
        assert as_spec("WLSK", n_iterations=2).param_dict == {"n_iterations": 2}
        with pytest.raises(KernelSpecError):
            as_spec(42)


class TestMake:
    def test_make_builds_kernel(self):
        kernel = make("WLSK", n_iterations=3)
        assert isinstance(kernel, WeisfeilerLehmanKernel)
        assert kernel.n_iterations == 3

    def test_make_accepts_spec(self):
        kernel = make(KernelSpec("HAQJSK(D)", n_prototypes=4))
        assert isinstance(kernel, HAQJSKKernelD)
        assert kernel.aligner.n_prototypes == 4

    def test_make_applies_registered_defaults(self):
        kernel = make("HAQJSK(D)")
        assert kernel.aligner.n_prototypes == 32
        assert kernel.aligner.n_levels == 5
        assert kernel.aligner.max_layers == 6  # scaled default

    def test_spec_error_is_kernel_error(self):
        # The spec errors slot into the existing hierarchy so historical
        # ``except KernelError`` call sites keep catching factory misuse.
        with pytest.raises(KernelError):
            make("NOT_A_KERNEL")


class TestLenientSpec:
    """The roster front of the experiments (Table III-V, properties):
    params a kernel does not take are dropped, the rest build exactly
    the registry's kernel."""

    @pytest.mark.parametrize(
        "name", ["HAQJSK(D)", "QJSK", "JTQK", "WLSK", "GCGK", "CORE WL", "SPEGK"]
    )
    def test_lenient_spec_matches_registry(self, name):
        lenient = lenient_spec(name, n_prototypes=16, seed=2).make()
        entry = kernel_entry(name)
        params = {
            key: value
            for key, value in {"n_prototypes": 16, "seed": 2}.items()
            if key in entry.parameters
        }
        fresh = make(name, **params)
        assert isinstance(lenient, GraphKernel)
        assert type(lenient) is type(fresh)
        assert lenient.fingerprint() == fresh.fingerprint()
