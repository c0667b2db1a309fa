"""End-to-end Gram equivalence under compute policies.

The documented tolerance tiers (README "Backends & precision"):

* ``float64/eig`` — the reference; bit-stable (1e-10 against the
  historical arithmetic, and engines agree bitwise with each other);
* ``float32/eig`` — Gram entries within ``1e-5`` of the reference;
* Chebyshev (``entropy="chebyshev"`` / ``auto`` at float32) — Gram
  entries within ``2e-2`` of the reference at the default degree.
"""

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.backend import ComputePolicy, policy_scope
from repro.engine import BatchedEngine, ProcessEngine, SerialEngine
from repro.graphs import generators as gen
from repro.kernels import (
    HAQJSKKernelA,
    HAQJSKKernelD,
    JensenTsallisQKernel,
    QJSKAligned,
    QJSKUnaligned,
)

FLOAT32_ATOL = 1e-5
CHEBYSHEV_ATOL = 2e-2

FP32 = ComputePolicy(precision="float32")
CHEB = ComputePolicy(precision="float32", entropy="chebyshev")
AUTO = ComputePolicy(precision="float32", entropy="auto", approx_min_dim=8)


def on(engine) -> ExecutionContext:
    """The context running a Gram on ``engine`` (a name or an instance)."""
    return ExecutionContext(engine=engine)


def make_kernels():
    return [
        HAQJSKKernelA(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
        HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
        QJSKUnaligned(),
        QJSKAligned(),
        JensenTsallisQKernel(n_iterations=3),
    ]


KERNELS = make_kernels()
KERNEL_IDS = [k.name for k in KERNELS]


@pytest.fixture(scope="module")
def graphs():
    return [
        gen.cycle_graph(8),
        gen.path_graph(9),
        gen.star_graph(9),
        gen.barabasi_albert(12, 2, seed=0),
        gen.erdos_renyi(11, 0.4, seed=1).largest_component(),
        gen.watts_strogatz(10, 4, 0.3, seed=2),
        gen.random_tree(10, seed=3),
    ]


@pytest.fixture(scope="module")
def reference_grams(graphs):
    return {
        kernel.name: kernel.gram(graphs, ctx=on("batched"))
        for kernel in make_kernels()
    }


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
class TestPolicyTiers:
    def test_reference_policy_is_bitwise_stable(
        self, kernel, graphs, reference_grams
    ):
        with policy_scope(ComputePolicy()):
            gram = kernel.gram(graphs, ctx=on("batched"))
        np.testing.assert_array_equal(gram, reference_grams[kernel.name])

    def test_float32_within_documented_tier(
        self, kernel, graphs, reference_grams
    ):
        with policy_scope(FP32):
            gram = kernel.gram(graphs, ctx=on("batched"))
        np.testing.assert_allclose(
            gram, reference_grams[kernel.name], atol=FLOAT32_ATOL
        )

    def test_chebyshev_within_documented_tier(
        self, kernel, graphs, reference_grams
    ):
        with policy_scope(CHEB):
            gram = kernel.gram(graphs, ctx=on("batched"))
        np.testing.assert_allclose(
            gram, reference_grams[kernel.name], atol=CHEBYSHEV_ATOL
        )

    def test_float64_engines_agree_bitwise(self, kernel, graphs):
        serial = kernel.gram(graphs, ctx=on(SerialEngine()))
        batched = kernel.gram(graphs, ctx=on(BatchedEngine()))
        np.testing.assert_allclose(serial, batched, atol=1e-10)


class TestEngineThreading:
    def test_engine_policy_attribute_installs_scope(self, graphs):
        kernel = QJSKUnaligned()
        reference = kernel.gram(graphs, ctx=on(BatchedEngine()))
        fast = kernel.gram(graphs, ctx=on(BatchedEngine(policy=FP32)))
        assert not np.array_equal(fast, reference)
        np.testing.assert_allclose(fast, reference, atol=FLOAT32_ATOL)

    def test_process_engine_ships_policy_to_workers(self, graphs):
        kernel = QJSKUnaligned()
        reference = kernel.gram(graphs, ctx=on(BatchedEngine()))
        engine = ProcessEngine(policy=CHEB, max_workers=2)
        with pytest.warns(RuntimeWarning) if _pool_blocked() else _nullcontext():
            approx = kernel.gram(graphs, ctx=on(engine))
        np.testing.assert_allclose(approx, reference, atol=CHEBYSHEV_ATOL)

    def test_ambient_scope_reaches_process_workers(self, graphs):
        kernel = QJSKUnaligned()
        reference = kernel.gram(graphs, ctx=on(BatchedEngine()))
        with policy_scope(FP32):
            with pytest.warns(RuntimeWarning) if _pool_blocked() else (
                _nullcontext()
            ):
                fast = kernel.gram(graphs, ctx=on(ProcessEngine(max_workers=2)))
        assert not np.array_equal(fast, reference)
        np.testing.assert_allclose(fast, reference, atol=FLOAT32_ATOL)

    def test_auto_routes_large_levels_only(self, graphs):
        # auto + float32: levels >= approx_min_dim go eigenvalue-free,
        # the rest stay exact — the result must sit inside the loosest
        # (Chebyshev) tier.
        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        reference = kernel.gram(graphs, ctx=on("batched"))
        with policy_scope(AUTO):
            mixed = kernel.gram(graphs, ctx=on("batched"))
        np.testing.assert_allclose(mixed, reference, atol=CHEBYSHEV_ATOL)


class TestContextThreading:
    def test_context_fields_reach_the_tiles(self, graphs):
        kernel = QJSKUnaligned()
        reference = kernel.gram(graphs)
        ctx = ExecutionContext(precision="float32")
        fast = kernel.gram(graphs, ctx=ctx)
        assert not np.array_equal(fast, reference)
        np.testing.assert_allclose(fast, reference, atol=FLOAT32_ATOL)

    def test_context_record_carries_resolved_policy(self):
        record = ExecutionContext(precision="float32").to_record()
        assert "backend" not in record
        assert record["precision"] == "float32"
        assert record["entropy"] == "eig"
        rebuilt = ExecutionContext.from_record(record)
        assert rebuilt.to_record() == record

    def test_context_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        monkeypatch.setenv("REPRO_ENTROPY", "auto")
        ctx = ExecutionContext.from_env()
        assert ctx.precision == "float32"
        assert ctx.entropy == "auto"
        policy = ctx.compute_policy()
        assert policy.describe() == "float32/auto"

    def test_context_rejects_unknown_backend_at_construction(self):
        # The array-backend field is gone: naming one is a TypeError.
        with pytest.raises(TypeError, match="backend"):
            ExecutionContext(backend="numpy")

    def test_reference_context_still_validates(self):
        ctx = ExecutionContext()
        assert ctx.validate() is ctx

    def test_bundle_records_compute_policy(self, graphs):
        from repro.serve import train_bundle

        labels = [i % 2 for i in range(len(graphs))]
        bundle = train_bundle(
            QJSKUnaligned(),
            graphs,
            labels,
            ctx=ExecutionContext(precision="float32"),
        )
        assert bundle.context_record["precision"] == "float32"
        assert "backend" not in bundle.context_record


def _pool_blocked() -> bool:
    """Whether this environment degrades ProcessEngine to in-process."""
    import warnings

    engine = ProcessEngine(max_workers=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        engine.run_tiles(
            iter([(("k",), (_IdentityKernel(), [1.0], [1.0], False))]),
            lambda key, block: None,
        )
    return any(issubclass(w.category, RuntimeWarning) for w in caught)


class _IdentityKernel:
    def block_values(self, states_a, states_b):
        return np.ones((len(states_a), len(states_b)))

    def symmetric_block_values(self, states):
        return np.ones((len(states), len(states)))


from contextlib import nullcontext as _nullcontext  # noqa: E402
