"""Tile plans, Gram sinks, and tile-boundary edge cases.

The tentpole contract: every backend streams the same tile schedule into
any sink, and the assembled matrix equals the dense reference — at tile
sizes that do not divide ``n``, tile size 1, tile sizes larger than
``n``, and for empty batches. Parametrized across all three backends and
both engine-layer sinks (the store layer's CheckpointSink has its own
suite under ``tests/store``).
"""

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.api.context import TILE_ENV_VAR
from repro.engine import (
    BatchedEngine,
    DenseSink,
    MemmapSink,
    ProcessEngine,
    SerialEngine,
    TilePlan,
)
from repro.errors import KernelError, ValidationError
from repro.graphs import generators as gen
from repro.kernels import QJSKUnaligned, WeisfeilerLehmanKernel, make

ATOL = 1e-10

ENGINES = {
    "serial": SerialEngine,
    "batched": BatchedEngine,
    "process": ProcessEngine,
}

SINKS = {
    "dense": lambda tmp_path: DenseSink(),
    "memmap": lambda tmp_path: MemmapSink(str(tmp_path / "gram.npy")),
}


def into(sink, engine=None) -> ExecutionContext:
    """A context streaming one Gram into ``sink`` (sinks are single-use)."""
    return ExecutionContext(engine=engine, sink_factory=lambda: sink)


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


class TestTilePlan:
    def test_symmetric_plan_covers_upper_triangle(self):
        plan = TilePlan.gram(5, 2)
        tiles = list(plan.tiles())
        assert ((0, 2), (0, 2)) in tiles
        assert ((0, 2), (2, 4)) in tiles
        assert ((2, 4), (0, 2)) not in tiles
        assert plan.n_tiles() == 6  # 3 ranges -> 3*(3+1)/2 pairs

    def test_cross_plan_covers_rectangle(self):
        plan = TilePlan.cross(5, 3, 2)
        assert plan.n_tiles() == 3 * 2
        assert not plan.symmetric

    def test_is_diagonal(self):
        plan = TilePlan.gram(4, 2)
        assert plan.is_diagonal((0, 2), (0, 2))
        assert not plan.is_diagonal((0, 2), (2, 4))
        assert not TilePlan.cross(4, 4, 2).is_diagonal((0, 2), (0, 2))

    def test_empty_plan(self):
        assert TilePlan.gram(0, 4).n_tiles() == 0
        assert TilePlan.cross(0, 7, 4).n_tiles() == 0


class TestTileSizeResolution:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(TILE_ENV_VAR, "17")
        assert BatchedEngine(tile_size=5).tile_size == 5

    def test_env_beats_backend_default(self, monkeypatch):
        # Through ExecutionContext.from_env, the one reader of REPRO_*.
        monkeypatch.setenv(TILE_ENV_VAR, "17")
        for name, cls in ENGINES.items():
            resolved = ExecutionContext.from_env(engine=name).resolved_engine()
            assert resolved.tile_size == 17
            # Engines and explicit contexts do not read the environment.
            assert cls().tile_size == cls.default_tile
            assert ExecutionContext(engine=name).resolved_engine().tile_size == (
                cls.default_tile
            )

    def test_backend_defaults(self, monkeypatch):
        monkeypatch.delenv(TILE_ENV_VAR, raising=False)
        assert SerialEngine().tile_size == 128
        assert BatchedEngine().tile_size == 64
        assert ProcessEngine().tile_size == 32

    def test_malformed_env_fails_loudly(self, monkeypatch):
        # One reader, one error: from_env refuses it with ValidationError.
        monkeypatch.setenv(TILE_ENV_VAR, "sixty-four")
        with pytest.raises(ValidationError, match="REPRO_GRAM_TILE"):
            ExecutionContext.from_env()
        monkeypatch.setenv(TILE_ENV_VAR, "0")
        with pytest.raises(ValidationError, match=">= 1"):
            ExecutionContext.from_env()


class TestSinkContract:
    def test_write_before_open_raises(self):
        with pytest.raises(KernelError, match="before open"):
            DenseSink().write((0, 1), (0, 1), np.zeros((1, 1)))

    def test_finalize_before_open_raises(self, tmp_path):
        with pytest.raises(KernelError, match="before open"):
            DenseSink().finalize()
        with pytest.raises(KernelError, match="before open"):
            MemmapSink(str(tmp_path / "g.npy")).finalize()

    def test_misshapen_tile_raises(self):
        sink = DenseSink()
        sink.open(TilePlan.gram(4, 2))
        with pytest.raises(KernelError, match="shape"):
            sink.write((0, 2), (0, 2), np.zeros((3, 3)))

    def test_memmap_is_npy_readable(self, tmp_path, probe_graphs):
        kernel = QJSKUnaligned()
        sink = MemmapSink(str(tmp_path / "gram.npy"))
        gram = kernel.gram(probe_graphs, ctx=into(sink))
        loaded = np.load(sink.path)
        assert np.array_equal(loaded, np.asarray(gram))

    def test_memmap_float32_storage_mode(self, tmp_path, probe_graphs):
        """The opt-in storage dtype: computation stays float64, only the
        on-disk store is cast — pinned to the float32 cast tolerance."""
        kernel = QJSKUnaligned()
        dense = kernel.gram(probe_graphs)
        sink = MemmapSink(str(tmp_path / "gram32.npy"), dtype="float32")
        gram32 = kernel.gram(probe_graphs, ctx=into(sink))
        assert np.asarray(gram32).dtype == np.float32
        assert sink.path.endswith(".npy")
        # float32 has ~7 significant digits; values here are O(1).
        assert np.allclose(np.asarray(gram32), dense, atol=1e-6, rtol=1e-6)
        assert not np.allclose(np.asarray(gram32), dense, atol=1e-14, rtol=0.0)
        assert np.array_equal(
            np.asarray(gram32), dense.astype(np.float32)
        )


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("sink_name", sorted(SINKS))
class TestTileBoundaryEdgeCases:
    """n = 7 graphs against tile sizes hitting every boundary case."""

    def _gram(self, kernel, graphs, engine_name, sink_name, tmp_path, tile):
        engine = ENGINES[engine_name](tile_size=tile)
        sink = SINKS[sink_name](tmp_path)
        return np.asarray(
            kernel.gram(graphs, ctx=into(sink, engine)), dtype=float
        )

    @pytest.mark.parametrize("tile", [1, 2, 3, 7, 64])
    def test_gram_matches_serial_reference(
        self, engine_name, sink_name, tile, probe_graphs, tmp_path
    ):
        """Tile 1 (degenerate), 2/3 (n=7 not divisible), 7 (exact), 64
        (tile > n) all agree with the dense serial reference."""
        kernel = QJSKUnaligned()
        reference = kernel.gram(probe_graphs, ctx=ExecutionContext(engine="serial"))
        gram = self._gram(
            kernel, probe_graphs, engine_name, sink_name, tmp_path, tile
        )
        assert gram.shape == reference.shape
        assert np.allclose(gram, reference, atol=ATOL, rtol=0.0)
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("tile", [1, 3, 64])
    def test_cross_gram_matches_reference(
        self, engine_name, sink_name, tile, probe_graphs, tmp_path
    ):
        kernel = QJSKUnaligned()
        states = kernel.prepare(list(probe_graphs))
        left, right = states[:4], states[4:]
        reference = SerialEngine().cross_gram(kernel, left, right)
        engine = ENGINES[engine_name](tile_size=tile)
        block = np.asarray(
            engine.cross_gram(kernel, left, right, sink=SINKS[sink_name](tmp_path))
        )
        assert block.shape == (4, 3)
        assert np.allclose(block, reference, atol=ATOL, rtol=0.0)

    def test_empty_row_batch(
        self, engine_name, sink_name, probe_graphs, tmp_path
    ):
        """An empty new-graph batch yields a (0, N) block, not a crash."""
        kernel = QJSKUnaligned()
        states = kernel.prepare(list(probe_graphs))
        engine = ENGINES[engine_name](tile_size=3)
        block = np.asarray(
            engine.cross_gram(kernel, [], states, sink=SINKS[sink_name](tmp_path))
        )
        assert block.shape == (0, len(states))


@pytest.mark.parametrize("tile", [1, 3, 64])
def test_feature_map_tiled_path(tile, probe_graphs, tmp_path):
    """Feature-map kernels stream per-tile matmuls; the in-memory and
    memmapped Grams at one tile size are the same bytes. GCGK's
    histograms are normalised floats, so a one-matmul path would differ
    from per-tile products in the last ulp; WLSK counts integers."""
    for kernel in (WeisfeilerLehmanKernel(3), make("GCGK")):
        engine = BatchedEngine(tile_size=tile)
        dense = kernel.gram(
            probe_graphs, normalize=True, ctx=ExecutionContext(engine=engine)
        )
        sink = MemmapSink(str(tmp_path / f"{kernel.name}-{tile}.npy"))
        tiled = kernel.gram(probe_graphs, normalize=True, ctx=into(sink, engine))
        assert np.asarray(tiled).tobytes() == dense.tobytes(), kernel.name


def test_normalized_memmap_matches_dense(probe_graphs, tmp_path):
    """Tile-wise cosine normalisation on the memmap equals the dense
    normalize path bit-for-bit (same association order per entry)."""
    kernel = QJSKUnaligned()
    dense = kernel.gram(probe_graphs, normalize=True)
    tiled = kernel.gram(
        probe_graphs,
        normalize=True,
        ctx=into(MemmapSink(str(tmp_path / "norm.npy")), BatchedEngine(tile_size=3)),
    )
    assert np.array_equal(np.asarray(tiled), dense)


def test_ensure_psd_refused_out_of_core(probe_graphs, tmp_path):
    """PSD projection is global; out-of-core sinks must refuse, in-memory
    sinks may densify. The refusal is the unified ExecutionContext
    validation error naming the offending fields."""
    from repro.errors import ValidationError

    kernel = QJSKUnaligned()
    with pytest.raises(ValidationError, match="ensure_psd.*sink"):
        kernel.gram(
            probe_graphs,
            ensure_psd=True,
            ctx=ExecutionContext(
                sink_factory=lambda: MemmapSink(str(tmp_path / "psd2.npy"))
            ),
        )
    dense = kernel.gram(probe_graphs, ensure_psd=True)
    sunk = kernel.gram(probe_graphs, ensure_psd=True, ctx=into(DenseSink()))
    assert np.allclose(sunk, dense, atol=ATOL, rtol=0.0)


def test_dense_sink_path_is_byte_identical_to_default(probe_graphs, tmp_path):
    """Every Gram streams its tiles into a sink, so the default context,
    an explicit DenseSink, a MemmapSink and a store-backed context give
    the same bytes, for both kernel families, at the default tile size
    and at one that does not divide n."""
    kernels = (QJSKUnaligned(), WeisfeilerLehmanKernel(3), make("GCGK"))
    for tile in (None, 3):
        base = ExecutionContext(tile_size=tile)
        for kernel in kernels:
            label = f"{kernel.name}-{tile}"
            default = kernel.gram(probe_graphs, normalize=True, ctx=base)
            path = str(tmp_path / f"{label}.npy")
            routes = {
                "dense": base.replace(sink_factory=DenseSink),
                "memmap": base.replace(sink_factory=lambda: MemmapSink(path)),
                "store": base.replace(store=f"mem:dense-sink-{label}"),
            }
            for route, ctx in routes.items():
                sunk = kernel.gram(probe_graphs, normalize=True, ctx=ctx)
                assert np.asarray(sunk).tobytes() == default.tobytes(), (label, route)
