"""Incremental Gram extension: exactness, eligibility gating, serving path.

The ISSUE acceptance criterion: ``gram_extend`` must agree with a
from-scratch ``gram`` to 1e-10 for every collection-independent kernel
and for frozen-prototype HAQJSK, on all three engine backends — and must
refuse loudly (named :class:`KernelError`) whenever a kernel's
collection semantics would silently change the cached entries.
"""

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.errors import KernelError, ValidationError
from repro.graphs import generators as gen
from repro.kernels import (
    AlignedSubtreeKernel,
    GraphletKernel,
    HAQJSKAttributedD,
    HAQJSKKernelA,
    HAQJSKKernelD,
    JensenShannonKernel,
    JensenTsallisQKernel,
    PyramidMatchKernel,
    QJSKAligned,
    QJSKUnaligned,
    RandomWalkKernel,
    RenyiEntropyKernel,
    ShortestPathKernel,
    WeisfeilerLehmanKernel,
)

ATOL = 1e-10

ENGINES = ("serial", "batched", "process")


def eligible_zoo():
    """Every collection-independent kernel: pairwise opt-ins + feature maps."""
    return [
        QJSKUnaligned(),
        QJSKAligned(),
        JensenTsallisQKernel(n_iterations=3),
        JensenTsallisQKernel(q=1.7, n_iterations=2),
        JensenShannonKernel(),
        RenyiEntropyKernel(n_layers=4),
        PyramidMatchKernel(dimensions=3, n_levels=2),
        WeisfeilerLehmanKernel(3),
        ShortestPathKernel(),
        GraphletKernel(size=3),
    ]


ZOO = eligible_zoo()
ZOO_IDS = [f"{k.name}-{i}" for i, k in enumerate(ZOO)]


@pytest.fixture(scope="module")
def old_graphs():
    return [
        gen.cycle_graph(6),
        gen.path_graph(7),
        gen.star_graph(7),
        gen.barabasi_albert(9, 2, seed=0),
        gen.erdos_renyi(8, 0.4, seed=1).largest_component(),
    ]


@pytest.fixture(scope="module")
def new_graphs():
    return [gen.watts_strogatz(8, 4, 0.3, seed=2), gen.random_tree(8, seed=3)]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kernel", ZOO, ids=ZOO_IDS)
class TestExtensionMatchesFullGram:
    def test_extend_matches_scratch(self, kernel, engine, old_graphs, new_graphs):
        ctx = ExecutionContext(engine=engine)
        full = kernel.gram(old_graphs + new_graphs, ctx=ctx)
        cached = kernel.gram(old_graphs, ctx=ctx)
        extended = kernel.gram_extend(cached, old_graphs, new_graphs, ctx=ctx)
        assert extended.shape == full.shape
        assert np.allclose(extended, full, atol=ATOL, rtol=0.0), kernel.name

    def test_repeated_extension(self, kernel, engine, old_graphs, new_graphs):
        """Extending twice (one newcomer at a time) still matches scratch."""
        ctx = ExecutionContext(engine=engine)
        full = kernel.gram(old_graphs + new_graphs, ctx=ctx)
        gram = kernel.gram(old_graphs, ctx=ctx)
        graphs = list(old_graphs)
        for newcomer in new_graphs:
            gram = kernel.gram_extend(gram, graphs, [newcomer], ctx=ctx)
            graphs.append(newcomer)
        assert np.allclose(gram, full, atol=ATOL, rtol=0.0), kernel.name


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "make",
    [
        lambda: HAQJSKKernelA(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
        lambda: HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
        lambda: HAQJSKAttributedD(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
    ],
    ids=["HAQJSK(A)", "HAQJSK(D)", "HAQJSK-L(D)"],
)
class TestFrozenPrototypeExtension:
    def test_frozen_extension_matches_scratch(
        self, make, engine, old_graphs, new_graphs
    ):
        kernel = make().freeze(old_graphs)
        ctx = ExecutionContext(engine=engine)
        full = kernel.gram(old_graphs + new_graphs, ctx=ctx)
        cached = kernel.gram(old_graphs, ctx=ctx)
        extended = kernel.gram_extend(cached, old_graphs, new_graphs, ctx=ctx)
        assert np.allclose(extended, full, atol=ATOL, rtol=0.0), kernel.name


class TestFrozenMode:
    def test_unfrozen_refuses_with_named_error(self, old_graphs, new_graphs):
        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        cached = kernel.gram(old_graphs)
        with pytest.raises(KernelError, match=r"HAQJSK\(D\).*freeze"):
            kernel.gram_extend(cached, old_graphs, new_graphs)

    def test_freeze_unfreeze_toggles_eligibility(self, old_graphs):
        kernel = HAQJSKKernelA(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        assert not kernel.collection_independent
        kernel.freeze(old_graphs)
        assert kernel.collection_independent
        kernel.unfreeze()
        assert not kernel.collection_independent

    def test_frozen_gram_is_stable_under_collection_growth(
        self, old_graphs, new_graphs
    ):
        """The defining frozen property: old entries never move."""
        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        kernel.freeze(old_graphs)
        reference = kernel.gram(old_graphs)
        combined = kernel.gram(old_graphs + new_graphs)
        n = len(old_graphs)
        assert np.allclose(combined[:n, :n], reference, atol=ATOL, rtol=0.0)

    def test_unfrozen_gram_depends_on_collection(self, old_graphs, new_graphs):
        """Sanity: without freezing, the old block genuinely moves —
        which is exactly why gram_extend must refuse."""
        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        reference = kernel.gram(old_graphs)
        combined = kernel.gram(old_graphs + new_graphs)
        n = len(old_graphs)
        assert not np.allclose(combined[:n, :n], reference, atol=1e-6)

    def test_frozen_system_is_picklable(self, old_graphs):
        import pickle

        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        kernel.freeze(old_graphs)
        system = pickle.loads(pickle.dumps(kernel.aligner.frozen_))
        assert system.reference_digest == kernel.aligner.frozen_.reference_digest
        assert system.n_layers == kernel.aligner.frozen_.n_layers


class TestCollectionDependentRefusals:
    @pytest.mark.parametrize(
        "kernel",
        [
            RandomWalkKernel(),
            AlignedSubtreeKernel(n_iterations=3, max_layers=4),
            GraphletKernel(size=4, n_samples=50, seed=0),
        ],
        ids=["RWK", "ASK", "GCGK-4"],
    )
    def test_refuses(self, kernel, old_graphs, new_graphs):
        cached = kernel.gram(old_graphs)
        with pytest.raises(KernelError, match="gram_extend refused"):
            kernel.gram_extend(cached, old_graphs, new_graphs)

    def test_graphlet_size3_is_eligible(self, old_graphs, new_graphs):
        kernel = GraphletKernel(size=3)
        assert kernel.collection_independent


class TestExtensionValidation:
    def test_store_context_refused(self, old_graphs, new_graphs):
        """gram_extend computes in memory; a store context is refused with
        a named error pointing at the two persistent ways to grow."""
        kernel = QJSKUnaligned()
        cached = kernel.gram(old_graphs)
        ctx = ExecutionContext(store="mem:gram-extend-refusal")
        hint = r"gram\(old \+ new, ctx=ctx\).*IncrementalGram"
        with pytest.raises(ValidationError, match=hint):
            kernel.gram_extend(cached, old_graphs, new_graphs, ctx=ctx)

    def test_shape_mismatch_rejected(self, old_graphs, new_graphs):
        kernel = QJSKUnaligned()
        bad = np.zeros((2, 2))
        with pytest.raises(KernelError, match="cached_gram"):
            kernel.gram_extend(bad, old_graphs, new_graphs)

    def test_empty_lists_rejected(self, old_graphs):
        kernel = QJSKUnaligned()
        cached = kernel.gram(old_graphs)
        with pytest.raises(KernelError):
            kernel.gram_extend(cached, old_graphs, [])
        with pytest.raises(KernelError):
            kernel.gram_extend(cached, [], old_graphs)
