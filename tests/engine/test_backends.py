"""Backend-equivalence tests for the pluggable Gram engines.

Every pairwise kernel in the zoo must produce the same Gram matrix (to
1e-10) under the ``serial``, ``batched`` and ``process`` backends, for
square and rectangular evaluation, at tile sizes that exercise the
single-tile, multi-tile and degenerate paths. The batched path must also
preserve the permutation invariance the HAQJSK kernels claim in Table I.
"""

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.engine import (
    BatchedEngine,
    ProcessEngine,
    SerialEngine,
    available_engines,
    resolve_engine,
)
from repro.errors import KernelError
from repro.graphs import generators as gen
from repro.kernels import (
    AlignedSubtreeKernel,
    HAQJSKAttributedD,
    HAQJSKKernelA,
    HAQJSKKernelD,
    JensenShannonKernel,
    JensenTsallisQKernel,
    PairwiseKernel,
    PyramidMatchKernel,
    QJSKAligned,
    QJSKUnaligned,
    RandomWalkKernel,
    RenyiEntropyKernel,
)

#: One context per backend (contexts are immutable, so sharing is safe).
CTX = {name: ExecutionContext(engine=name) for name in ("serial", "batched", "process")}

#: Pairwise kernels only — the engines schedule pair evaluations, so the
#: feature-map family (one matmul, no pairs) is out of scope by design.
def pairwise_zoo():
    return [
        HAQJSKKernelA(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
        HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
        HAQJSKAttributedD(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
        QJSKUnaligned(),
        QJSKAligned(),
        JensenTsallisQKernel(n_iterations=3),
        JensenTsallisQKernel(q=1.7, n_iterations=2),  # generic-q batched path
        PyramidMatchKernel(dimensions=3, n_levels=2),
        AlignedSubtreeKernel(n_iterations=3, max_layers=4),
        RenyiEntropyKernel(n_layers=4),
        JensenShannonKernel(),
        RandomWalkKernel(),
    ]


ZOO = pairwise_zoo()
ZOO_IDS = [f"{k.name}-{i}" for i, k in enumerate(ZOO)]

#: The tolerance the ISSUE acceptance criteria pin the backends to.
ATOL = 1e-10


@pytest.fixture(scope="module")
def probe_graphs():
    return [
        gen.cycle_graph(6),
        gen.path_graph(7),
        gen.star_graph(7),
        gen.barabasi_albert(9, 2, seed=0),
        gen.erdos_renyi(8, 0.4, seed=1).largest_component(),
        gen.watts_strogatz(8, 4, 0.3, seed=2),
        gen.random_tree(8, seed=3),
    ]


@pytest.mark.parametrize("kernel", ZOO, ids=ZOO_IDS)
class TestBackendEquivalence:
    def test_gram_backends_agree(self, kernel, probe_graphs):
        serial = kernel.gram(probe_graphs, ctx=CTX["serial"])
        batched = kernel.gram(probe_graphs, ctx=CTX["batched"])
        process = kernel.gram(probe_graphs, ctx=CTX["process"])
        assert np.allclose(batched, serial, atol=ATOL, rtol=0.0), kernel.name
        assert np.allclose(process, serial, atol=ATOL, rtol=0.0), kernel.name

    def test_cross_gram_backends_agree(self, kernel, probe_graphs):
        left, right = probe_graphs[:4], probe_graphs[4:]
        serial = kernel.cross_gram(left, right, ctx=CTX["serial"])
        batched = kernel.cross_gram(left, right, ctx=CTX["batched"])
        process = kernel.cross_gram(left, right, ctx=CTX["process"])
        assert serial.shape == (4, 3)
        assert np.allclose(batched, serial, atol=ATOL, rtol=0.0), kernel.name
        assert np.allclose(process, serial, atol=ATOL, rtol=0.0), kernel.name

    def test_small_tiles_agree(self, kernel, probe_graphs):
        """Tile edges force the multi-tile diagonal/off-diagonal paths."""
        serial = kernel.gram(probe_graphs, ctx=CTX["serial"])
        tiled = kernel.gram(
            probe_graphs, ctx=ExecutionContext(engine=BatchedEngine(tile_size=2))
        )
        assert np.allclose(tiled, serial, atol=ATOL, rtol=0.0), kernel.name

    def test_block_values_matches_pair_grid(self, kernel, probe_graphs):
        states = kernel.prepare(list(probe_graphs))
        block = kernel.block_values(states[:3], states[3:])
        expected = np.array(
            [
                [kernel.pair_value(sa, sb) for sb in states[3:]]
                for sa in states[:3]
            ]
        )
        assert np.allclose(block, expected, atol=ATOL, rtol=0.0), kernel.name


@pytest.mark.parametrize(
    "make",
    [
        lambda: HAQJSKKernelA(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
        lambda: HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0),
    ],
    ids=["HAQJSK(A)", "HAQJSK(D)"],
)
def test_batched_path_is_permutation_invariant(make, probe_graphs):
    """Relabelling one graph's vertices must not change the batched Gram."""
    rng = np.random.default_rng(11)
    target = 2
    perm = rng.permutation(probe_graphs[target].n_vertices)
    permuted = list(probe_graphs)
    permuted[target] = probe_graphs[target].permuted(perm)
    kernel = make()
    gram_a = kernel.gram(probe_graphs, normalize=True, ctx=CTX["batched"])
    gram_b = kernel.gram(permuted, normalize=True, ctx=CTX["batched"])
    assert np.allclose(gram_a, gram_b, atol=1e-7)


class TestHierarchyLevelValidation:
    """Mismatched hierarchy depths raise a named KernelError, not IndexError."""

    def _states(self, n_levels):
        kernel = HAQJSKKernelD(
            n_prototypes=8, n_levels=n_levels, max_layers=3, seed=0
        )
        graphs = [gen.cycle_graph(6), gen.path_graph(7)]
        return kernel, kernel.prepare(graphs)

    def test_pair_value_mismatch(self):
        kernel, shallow = self._states(2)
        _, deep = self._states(3)
        with pytest.raises(KernelError, match=r"HAQJSK\(D\).*2 vs 3"):
            kernel.pair_value(shallow[0], deep[1])

    def test_block_values_mismatch(self):
        kernel, shallow = self._states(2)
        _, deep = self._states(3)
        with pytest.raises(KernelError, match=r"HAQJSK\(D\).*level"):
            kernel.block_values(shallow, deep)

    def test_matching_levels_pass(self):
        kernel, states = self._states(2)
        value = kernel.pair_value(states[0], states[1])
        assert np.isfinite(value)

    def test_jtqk_level_mismatch(self):
        graphs = [gen.cycle_graph(6), gen.path_graph(7)]
        shallow = JensenTsallisQKernel(n_iterations=2).prepare(graphs)
        kernel = JensenTsallisQKernel(n_iterations=3)
        deep = kernel.prepare(graphs)
        with pytest.raises(KernelError, match=r"JTQK.*4 vs 3"):
            kernel.pair_value(deep[0], shallow[1])
        with pytest.raises(KernelError, match="JTQK"):
            kernel.block_values(deep, shallow)

    def test_jtqk_vocabulary_mismatch(self):
        kernel = JensenTsallisQKernel(n_iterations=2)
        small = kernel.prepare([gen.cycle_graph(6), gen.path_graph(7)])
        large = kernel.prepare([gen.star_graph(8), gen.barabasi_albert(9, 2, seed=0)])
        if small[0][0].shape == large[0][0].shape:  # pragma: no cover
            pytest.skip("vocabularies happened to coincide")
        with pytest.raises(KernelError, match="vocabulary"):
            kernel.pair_value(small[0], large[0])


class TestEngineResolution:
    def test_available_engines(self):
        assert {"serial", "batched", "process"} <= set(available_engines())

    def test_resolve_by_name(self):
        assert isinstance(resolve_engine("serial"), SerialEngine)
        assert isinstance(resolve_engine("batched"), BatchedEngine)
        assert isinstance(resolve_engine("process"), ProcessEngine)

    def test_resolve_instance_passthrough(self):
        engine = BatchedEngine(tile_size=7)
        assert resolve_engine(engine) is engine

    def test_unknown_name_raises(self):
        with pytest.raises(KernelError, match="unknown gram engine"):
            resolve_engine("gpu")

    def test_bad_type_raises(self):
        with pytest.raises(KernelError):
            resolve_engine(42)

    def test_default_is_batched(self, monkeypatch):
        # Whatever the environment says: it enters through
        # ExecutionContext.from_env only.
        monkeypatch.delenv("REPRO_GRAM_ENGINE", raising=False)
        for env in (None, "serial", "process"):
            if env is not None:
                monkeypatch.setenv("REPRO_GRAM_ENGINE", env)
            assert type(resolve_engine(None)) is BatchedEngine
            assert type(ExecutionContext().resolved_engine()) is BatchedEngine

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAM_ENGINE", "serial")
        engine = ExecutionContext.from_env().resolved_engine()
        assert isinstance(engine, SerialEngine)


class TestTilingMachinery:
    def test_tile_ranges_cover(self):
        from repro.engine.base import tile_ranges

        assert tile_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert tile_ranges(3, 64) == [(0, 3)]
        assert tile_ranges(0, 4) == []

    def test_symmetric_tile_pairs_upper_triangle(self):
        from repro.engine.base import symmetric_tile_pairs

        pairs = list(symmetric_tile_pairs(5, 2))
        assert ((0, 2), (0, 2)) in pairs
        assert ((0, 2), (2, 4)) in pairs
        assert ((2, 4), (0, 2)) not in pairs

    def test_symmetric_block_values_uses_upper_triangle(self, probe_graphs):
        kernel = QJSKUnaligned()
        states = kernel.prepare(list(probe_graphs))
        block = kernel.symmetric_block_values(states)
        assert np.allclose(block, block.T)
        loop = SerialEngine().gram(kernel, states)
        assert np.allclose(block, loop, atol=ATOL, rtol=0.0)
