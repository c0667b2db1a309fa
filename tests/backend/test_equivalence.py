"""End-to-end Gram equivalence on the one exact entropy path.

Every context computes the same float64/eig values: the default context
reproduces the batched reference bit for bit, serial and batched agree
to 1e-10, and records name ``float64`` / ``eig`` as provenance.
"""

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.engine import BatchedEngine, SerialEngine
from repro.graphs import generators as gen
from repro.kernels import (
    HAQJSKKernelA,
    HAQJSKKernelD,
    JensenTsallisQKernel,
    QJSKAligned,
    QJSKUnaligned,
)


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
        # A fresh kernel under the default context recomputes the
        # batched reference byte for byte.
        fresh = make_kernels()[KERNEL_IDS.index(kernel.name)]
        gram = fresh.gram(graphs, ctx=ExecutionContext())
        assert gram.tobytes() == reference_grams[kernel.name].tobytes()

    def test_float64_engines_agree_bitwise(self, kernel, graphs):
        serial = kernel.gram(graphs, ctx=on(SerialEngine()))
        batched = kernel.gram(graphs, ctx=on(BatchedEngine()))
        np.testing.assert_allclose(serial, batched, atol=1e-10)


class TestContextThreading:
    def test_context_record_carries_resolved_policy(self):
        record = ExecutionContext().to_record()
        assert "backend" not in record
        assert (record["precision"], record["entropy"]) == ("float64", "eig")
        rebuilt = ExecutionContext.from_record(record)
        assert rebuilt.to_record() == record

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
            QJSKUnaligned(), graphs, labels, ctx=ExecutionContext()
        )
        assert bundle.context_record["precision"] == "float64"
        assert bundle.context_record["entropy"] == "eig"
        assert "backend" not in bundle.context_record
