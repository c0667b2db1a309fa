"""ComputePolicy construction, scoping and dispatch tests."""

import pickle

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.backend import (
    DEFAULT_CHEBYSHEV_DEGREE,
    REFERENCE_POLICY,
    ComputePolicy,
    active_policy,
    chebyshev_entropies,
    collect_phase_timings,
    policy_scope,
    scoped_policy,
)
from repro.backend.policy import APPROX_CHUNK_ELEMENTS
from repro.errors import BackendError, KernelError
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


class TestConstruction:
    def test_defaults_are_the_reference(self):
        policy = ComputePolicy()
        assert policy.is_reference
        assert policy.describe() == "float64/eig"
        assert policy.chebyshev_degree == DEFAULT_CHEBYSHEV_DEGREE

    def test_unknown_backend_rejected(self):
        # The array-backend setting is gone: naming one is a TypeError,
        # never silently ignored.
        with pytest.raises(TypeError, match="backend"):
            ComputePolicy(backend="numpy")

    def test_backend_error_is_a_kernel_error(self):
        assert issubclass(BackendError, KernelError)

    def test_unknown_precision_rejected(self):
        with pytest.raises(BackendError, match="float64"):
            ComputePolicy(precision="float16")

    def test_unknown_entropy_rejected(self):
        with pytest.raises(BackendError, match="chebyshev"):
            ComputePolicy(entropy="lanczos")

    def test_degenerate_degree_rejected(self):
        with pytest.raises(BackendError, match="degree"):
            ComputePolicy(chebyshev_degree=1)

    def test_from_env(self, monkeypatch):
        # The environment's policy comes through the execution context,
        # the one reader of REPRO_*; nothing beneath a context reads it.
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        monkeypatch.setenv("REPRO_ENTROPY", "auto")
        policy = ExecutionContext.from_env().compute_policy()
        assert policy.describe() == "float32/auto"
        # Overrides beat environment.
        overridden = ExecutionContext.from_env(precision="float64")
        assert overridden.compute_policy().precision == "float64"
        assert ComputePolicy() == REFERENCE_POLICY
        assert ExecutionContext().compute_policy() == REFERENCE_POLICY
        assert not hasattr(ComputePolicy, "from_env")

    def test_from_env_defaults_to_reference(self, monkeypatch):
        for var in ("REPRO_PRECISION", "REPRO_ENTROPY"):
            monkeypatch.delenv(var, raising=False)
        assert ExecutionContext.from_env().compute_policy() == REFERENCE_POLICY

    def test_policies_pickle(self):
        policy = ComputePolicy(precision="float32", entropy="auto")
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestScoping:
    def test_active_policy_defaults_to_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        assert active_policy() is REFERENCE_POLICY
        assert scoped_policy() is None

    def test_scope_installs_and_restores(self):
        fast = ComputePolicy(precision="float32")
        with policy_scope(fast):
            assert active_policy() is fast
            assert scoped_policy() is fast
        assert scoped_policy() is None

    def test_scopes_nest(self):
        outer = ComputePolicy(precision="float32")
        inner = ComputePolicy(entropy="chebyshev")
        with policy_scope(outer):
            with policy_scope(inner):
                assert active_policy() is inner
            assert active_policy() is outer

    def test_none_scope_is_transparent(self):
        outer = ComputePolicy(precision="float32")
        with policy_scope(outer):
            with policy_scope(None):
                assert active_policy() is outer

    def test_scope_rejects_non_policy(self):
        with pytest.raises(BackendError, match="ComputePolicy"):
            with policy_scope("float32"):  # type: ignore[arg-type]
                pass  # pragma: no cover


class TestEntropyDispatch:
    def test_reference_entropies_bitwise_stable(self):
        stack = _psd_stack()
        np.testing.assert_array_equal(
            REFERENCE_POLICY.entropies(stack), _historical_entropies(stack)
        )

    def test_reference_mixed_entropies_bitwise_stable(self):
        stack = _psd_stack()
        idx_a = np.array([0, 1, 2, 5, 9])
        idx_b = np.array([3, 3, 7, 0, 11])
        mixed = stack[idx_a] + stack[idx_b]
        mixed *= 0.5
        np.testing.assert_array_equal(
            REFERENCE_POLICY.mixed_entropies(stack, stack, idx_a, idx_b),
            _historical_entropies(mixed),
        )

    def test_float32_entropies_within_tier(self):
        stack = _psd_stack()
        fast = ComputePolicy(precision="float32")
        np.testing.assert_allclose(
            fast.entropies(stack), _historical_entropies(stack), atol=1e-5
        )
        assert fast.entropies(stack).dtype == np.float64

    def test_chebyshev_entropies_within_tier(self):
        stack = _psd_stack(m=24)
        approx = ComputePolicy(precision="float32", entropy="chebyshev")
        np.testing.assert_allclose(
            approx.entropies(stack), _historical_entropies(stack), atol=1e-2
        )

    def test_uses_approx_gating(self):
        assert not ComputePolicy().uses_approx(64)
        forced = ComputePolicy(entropy="chebyshev")
        assert forced.uses_approx(3)
        assert not forced.uses_approx(2)  # closed-form sizes stay exact
        auto64 = ComputePolicy(precision="float32", entropy="auto")
        assert auto64.uses_approx(32)
        assert not auto64.uses_approx(8)  # below approx_min_dim
        # auto at float64 never takes the eig-free path.
        assert not ComputePolicy(entropy="auto").uses_approx(64)

    def test_chebyshev_sub_batches_match_whole_batch(self):
        # More matrices than one APPROX_CHUNK_ELEMENTS sub-batch holds:
        # the split only bounds the working set, never a value.
        m = 64
        stack = _psd_stack(batch=APPROX_CHUNK_ELEMENTS // (m * m) + 5, m=m)
        approx = ComputePolicy(precision="float32", entropy="chebyshev")
        whole = chebyshev_entropies(
            stack.astype(np.float32), approx.chebyshev_degree
        )
        assert approx.entropies(stack, symmetrize=False).tobytes() == whole.tobytes()

    def test_matmul_matches_numpy_at_float64(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(9, 7))
        b = rng.normal(size=(7, 5))
        np.testing.assert_array_equal(REFERENCE_POLICY.matmul(a, b), a @ b)

    def test_phase_timings_collected(self):
        stack = _psd_stack()
        with collect_phase_timings() as timings:
            REFERENCE_POLICY.entropies(stack)
            REFERENCE_POLICY.matmul(stack[0], stack[1])
        assert set(timings) >= {"assembly", "eig", "reduce", "matmul"}
        assert all(value >= 0.0 for value in timings.values())

    def test_phase_timings_scope_is_isolated(self):
        stack = _psd_stack(batch=2, m=4)
        REFERENCE_POLICY.entropies(stack)  # no collector: must not raise
        with collect_phase_timings() as outer:
            with collect_phase_timings() as inner:
                REFERENCE_POLICY.entropies(stack)
            assert "eig" in inner
            REFERENCE_POLICY.entropies(stack)
        assert "eig" in outer
