"""Tile keys, CheckpointSink resume, and tile-granular gram_extend reuse.

The acceptance contract: a killed Gram run resumes by recomputing *only*
the unfinished tiles (pinned exactly with a counting kernel) and yields a
byte-identical matrix; tile keys are content-addressed by graph-slice
digests, so a grown collection reuses the prior run's interior tiles
without ever touching the prior matrix.
"""

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.engine import BatchedEngine, DenseSink, MemmapSink, SerialEngine, TilePlan
from repro.errors import ValidationError
from repro.graphs import generators as gen
from repro.kernels import HAQJSKKernelD, QJSKUnaligned, WeisfeilerLehmanKernel
from repro.store import ArtifactStore, CheckpointSink, TileKeyer, tile_keyer_for
from repro.utils.rng import as_rng, spawn_seed


def on(engine, sink=None) -> ExecutionContext:
    """A context computing on ``engine``, streaming into the single-use
    ``sink`` when given."""
    factory = None if sink is None else (lambda: sink)
    return ExecutionContext(engine=engine, sink_factory=factory)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


@pytest.fixture(scope="module")
def graphs():
    rng = as_rng(0)
    return [
        gen.erdos_renyi(8, 0.4, seed=spawn_seed(rng)) for _ in range(13)
    ]


@pytest.fixture(scope="module")
def newcomers():
    rng = as_rng(99)
    return [gen.erdos_renyi(8, 0.4, seed=spawn_seed(rng)) for _ in range(4)]


class _CountingQJSK(QJSKUnaligned):
    """QJSK counting its tile-block evaluations (batched backend).

    The counter is underscore-prefixed so it stays out of the
    configuration fingerprint — a public mutable counter would change the
    kernel's tile keys between runs and silently defeat every restore.
    """

    def __init__(self):
        super().__init__()
        self._block_calls = 0

    @property
    def block_calls(self):
        return self._block_calls

    def block_values(self, states_a, states_b):
        self._block_calls += 1
        return super().block_values(states_a, states_b)

    def symmetric_block_values(self, states):
        self._block_calls += 1
        return super().symmetric_block_values(states)


class _DyingSink(CheckpointSink):
    """Simulates a kill: raises after ``survive`` committed tiles."""

    def __init__(self, *args, survive, **kwargs):
        super().__init__(*args, **kwargs)
        self.survive = survive

    def write(self, rows, cols, block):
        if self.tiles_computed >= self.survive:
            raise KeyboardInterrupt("simulated kill mid-run")
        super().write(rows, cols, block)


class TestTileKeyer:
    def test_keys_are_stable_and_slice_addressed(self, graphs):
        kernel = QJSKUnaligned()
        keyer_a = tile_keyer_for(kernel, graphs)
        keyer_b = tile_keyer_for(kernel, graphs)
        assert keyer_a.key((0, 4), (4, 8)) == keyer_b.key((0, 4), (4, 8))
        assert keyer_a.key((0, 4), (4, 8)) != keyer_a.key((0, 4), (8, 12))

    def test_diagonal_flag_distinguishes(self, graphs):
        keyer = tile_keyer_for(QJSKUnaligned(), graphs)
        assert keyer.key((0, 4), (0, 4), diagonal=True) != keyer.key(
            (0, 4), (0, 4), diagonal=False
        )

    def test_collection_dependent_kernels_mix_collection(self, graphs):
        """Unfrozen HAQJSK pair values depend on the whole collection —
        its tile keys must not be reusable across collections."""
        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        assert not kernel.collection_independent
        short = tile_keyer_for(kernel, graphs[:8])
        longer = tile_keyer_for(kernel, graphs[:10])
        assert short.key((0, 4), (4, 8)) != longer.key((0, 4), (4, 8))
        # Collection-independent kernels share slice keys across growth.
        qjsk = QJSKUnaligned()
        assert tile_keyer_for(qjsk, graphs[:8]).key((0, 4), (4, 8)) == (
            tile_keyer_for(qjsk, graphs[:10]).key((0, 4), (4, 8))
        )

    def test_key_version_is_part_of_the_key(self, graphs, monkeypatch):
        """Tiles persisted under an older key schema (other pair
        arithmetic) must never be resumed into a newer Gram."""
        from repro.store import tiles

        keyer = tile_keyer_for(QJSKUnaligned(), graphs)
        current = keyer.key((0, 4), (4, 8))
        monkeypatch.setattr(tiles, "_TILE_KEY_VERSION", "tile-v1")
        assert keyer.key((0, 4), (4, 8)) != current

    def test_out_of_range_tiles_rejected(self, graphs):
        keyer = tile_keyer_for(QJSKUnaligned(), graphs[:4])
        with pytest.raises(ValidationError, match="outside"):
            keyer.key((0, 5), (0, 4))


class TestCheckpointResume:
    def test_kill_resume_recomputes_only_unfinished_tiles(
        self, store, graphs
    ):
        """The acceptance pin: with 10 tiles total and 4 committed before
        the kill, the resume computes exactly 6 block evaluations and the
        result is byte-identical to an uninterrupted run."""
        engine = BatchedEngine(tile_size=4)
        plan_tiles = TilePlan.gram(len(graphs), 4).n_tiles()
        assert plan_tiles == 10
        survive = 4

        kernel = _CountingQJSK()
        dying = _DyingSink(
            store, tile_keyer_for(kernel, graphs), survive=survive
        )
        with pytest.raises(KeyboardInterrupt):
            kernel.gram(graphs, ctx=on(engine, dying))
        assert dying.tiles_computed == survive

        kernel = _CountingQJSK()
        resumed_sink = CheckpointSink(store, tile_keyer_for(kernel, graphs))
        resumed = kernel.gram(graphs, ctx=on(engine, resumed_sink))
        assert resumed_sink.tiles_restored == survive
        assert resumed_sink.tiles_computed == plan_tiles - survive
        assert kernel.block_calls == plan_tiles - survive

        reference = QJSKUnaligned().gram(graphs, ctx=on(engine))
        assert np.array_equal(np.asarray(resumed), reference)

    def test_resume_into_memmap(self, store, graphs, tmp_path):
        """CheckpointSink composes with MemmapSink: out-of-core *and*
        resumable, and still byte-identical."""
        engine = BatchedEngine(tile_size=4)
        kernel = QJSKUnaligned()
        dying = _DyingSink(
            store, tile_keyer_for(kernel, graphs), survive=5,
            inner=MemmapSink(str(tmp_path / "a.npy")),
        )
        with pytest.raises(KeyboardInterrupt):
            kernel.gram(graphs, ctx=on(engine, dying))
        sink = CheckpointSink(
            store, tile_keyer_for(kernel, graphs),
            inner=MemmapSink(str(tmp_path / "b.npy")),
        )
        resumed = kernel.gram(graphs, ctx=on(engine, sink))
        assert sink.tiles_restored == 5
        assert isinstance(resumed, np.memmap)
        assert np.array_equal(
            np.asarray(resumed), kernel.gram(graphs, ctx=on(engine))
        )

    def test_discard_tiles(self, store, graphs):
        kernel = QJSKUnaligned()
        sink = CheckpointSink(store, tile_keyer_for(kernel, graphs))
        kernel.gram(graphs, ctx=on(BatchedEngine(tile_size=4), sink))
        keyer = tile_keyer_for(kernel, graphs)
        key = keyer.key((0, 4), (0, 4), diagonal=True)
        assert store.has("gram-tile", key)
        sink.discard_tiles()
        assert not store.has("gram-tile", key)


class TestTileGranularExtend:
    def test_grown_collection_reuses_interior_tiles(
        self, store, graphs, newcomers
    ):
        """gram(old + new) after gram(old) against the same store
        recomputes only the tiles that touch new graphs or the moved
        boundary — the tile-granular gram_extend."""
        engine = BatchedEngine(tile_size=4)
        kernel = QJSKUnaligned()
        first = CheckpointSink(store, tile_keyer_for(kernel, graphs))
        kernel.gram(graphs, ctx=on(engine, first))
        assert first.tiles_computed == 10  # 13 graphs / tile 4 -> 4 ranges

        grown = list(graphs) + list(newcomers)
        second = CheckpointSink(store, tile_keyer_for(kernel, grown))
        counted = _CountingQJSK()
        result = counted.gram(grown, ctx=on(engine, second))
        # 17 graphs -> ranges (0,4)(4,8)(8,12)(12,16)(16,17): 15 tiles.
        # Reusable: pairs among the first three (unchanged) ranges = 6;
        # the old partial range (12,13) moved, so its tiles recompute.
        assert second.tiles_restored == 6
        assert second.tiles_computed == 9
        assert counted.block_calls == 9
        reference = QJSKUnaligned().gram(grown, ctx=on(engine))
        assert np.array_equal(np.asarray(result), reference)


class TestMemmapArtifacts:
    def test_memmap_sink_roundtrips_through_store(self, store, graphs):
        kernel = WeisfeilerLehmanKernel(3)
        sink = store.memmap_sink("gram", "wl-demo")
        gram = kernel.gram(graphs, ctx=on(BatchedEngine(tile_size=4), sink))
        mapped = store.get_memmap("gram", "wl-demo")
        assert isinstance(mapped, np.memmap)
        assert np.array_equal(np.asarray(mapped), np.asarray(gram))
        # The same .npy is also readable through the dense accessor.
        assert np.array_equal(store.get_array("gram", "wl-demo"), gram)

    def test_get_memmap_absent_returns_none(self, store):
        assert store.get_memmap("gram", "no-such-key") is None

    def test_staged_sink_publishes_only_on_commit(self, store, graphs):
        """A run killed mid-assembly must leave *nothing* at the canonical
        key — half-written memmaps look complete (valid header, zero
        tiles) and would poison every later cache hit."""
        kernel = WeisfeilerLehmanKernel(3)
        sink = store.memmap_sink("gram", "staged-demo")
        plan_tile = BatchedEngine(tile_size=4)

        class _Dies(Exception):
            pass

        original_write = sink.write
        writes = {"n": 0}

        def dying_write(rows, cols, block):
            if writes["n"] >= 2:
                raise _Dies()
            writes["n"] += 1
            original_write(rows, cols, block)

        sink.write = dying_write  # instance-level patch; sink is discarded
        with pytest.raises(_Dies):
            kernel.gram(graphs, ctx=on(plan_tile, sink))
        assert store.get_memmap("gram", "staged-demo") is None
        assert store.get_array("gram", "staged-demo") is None

        # A completed run publishes atomically on commit.
        done = store.memmap_sink("gram", "staged-demo")
        gram = kernel.gram(graphs, ctx=on(plan_tile, done))
        published = store.get_memmap("gram", "staged-demo")
        assert np.array_equal(np.asarray(published), np.asarray(gram))


class TestStreamsTilesGate:
    def test_dense_replay_kernels_skip_tile_checkpointing(self, store, graphs):
        """Core-variant kernels recompute the whole Gram before any tile
        streams: store_backed_gram must not commit useless tiles for
        them, but still persists (and reloads) the whole matrix."""
        from repro.kernels import core_wl_kernel
        from repro.store import store_backed_gram

        kernel = core_wl_kernel(3)
        assert not kernel.streams_tiles
        assert QJSKUnaligned().streams_tiles
        assert WeisfeilerLehmanKernel(3).streams_tiles

        first = store_backed_gram(kernel, graphs, store, tile_checkpoint=True)
        tile_dir = f"{store.root}/gram-tile"
        import os

        assert not os.path.isdir(tile_dir)
        second = store_backed_gram(kernel, graphs, store, tile_checkpoint=True)
        assert np.array_equal(first, second)


class TestDeadTileReclamation:
    def test_collection_dependent_tiles_dropped_after_whole_gram_commit(
        self, store, graphs
    ):
        """store_backed_gram keeps reusable (collection-independent)
        tiles but reclaims collection-dependent ones, whose keys can
        never match another computation once the Gram is committed."""
        from repro.store import store_backed_gram

        dependent = HAQJSKKernelD(
            n_prototypes=8, n_levels=2, max_layers=3, seed=0
        )
        store_backed_gram(dependent, graphs, store, tile_checkpoint=True)
        keyer = tile_keyer_for(dependent, graphs)
        tile = (0, min(64, len(graphs)))
        assert not store.has("gram-tile", keyer.key(tile, tile, diagonal=True))

        independent = QJSKUnaligned()
        store_backed_gram(independent, graphs, store, tile_checkpoint=True)
        keyer = tile_keyer_for(independent, graphs)
        assert store.has("gram-tile", keyer.key(tile, tile, diagonal=True))
