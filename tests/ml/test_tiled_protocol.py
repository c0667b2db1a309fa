"""The ml layer over tile plans: streaming conditioner statistics,
out-of-core cross-validation, and tile-resumable Nyström fits."""

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.engine import BatchedEngine, MemmapSink
from repro.errors import ValidationError
from repro.graphs import generators as gen
from repro.kernels import QJSKUnaligned
from repro.ml import (
    GramConditioner,
    NystromApproximation,
    condition_gram,
    cross_validate_graph_kernel,
)
from repro.store import ArtifactStore
from repro.utils.rng import as_rng, spawn_seed


@pytest.fixture(scope="module")
def collection():
    rng = as_rng(5)
    graphs = []
    labels = []
    for i in range(10):
        graphs.append(gen.random_tree(8, seed=spawn_seed(rng)))
        labels.append(0)
        graphs.append(
            gen.erdos_renyi(9, 0.45, seed=spawn_seed(rng)).largest_component()
        )
        labels.append(1)
    return graphs, np.asarray(labels)


def _memmap_gram(kernel, graphs, tmp_path, **gram_kwargs):
    ctx = ExecutionContext(
        engine=BatchedEngine(tile_size=3),
        sink_factory=lambda: MemmapSink(str(tmp_path / "gram.npy")),
    )
    return kernel.gram(graphs, ctx=ctx, **gram_kwargs)


class TestStreamingConditioner:
    def test_memmap_fit_matches_dense_fit(self, collection, tmp_path):
        graphs, _ = collection
        kernel = QJSKUnaligned()
        dense = kernel.gram(graphs, normalize=True)
        mapped = _memmap_gram(kernel, graphs, tmp_path, normalize=True)
        assert isinstance(mapped, np.memmap)
        streamed = GramConditioner().fit(mapped)
        reference = GramConditioner().fit(dense)
        assert streamed.n_train_ == reference.n_train_
        assert np.allclose(
            streamed.column_means_, reference.column_means_, atol=1e-13
        )
        assert abs(streamed.grand_mean_ - reference.grand_mean_) < 1e-13
        assert abs(streamed.scale_ - reference.scale_) < 1e-13

    def test_streaming_fit_respects_small_stripes(self, collection, tmp_path):
        graphs, _ = collection
        kernel = QJSKUnaligned()
        mapped = _memmap_gram(kernel, graphs, tmp_path)
        a = GramConditioner()._fit_streaming(mapped, stripe_rows=3)
        b = GramConditioner().fit(np.asarray(mapped, dtype=float))
        assert np.allclose(a.column_means_, b.column_means_, atol=1e-13)
        assert abs(a.scale_ - b.scale_) < 1e-13

    def test_transform_inplace_tiled_matches_transform(
        self, collection, tmp_path
    ):
        graphs, _ = collection
        kernel = QJSKUnaligned()
        dense = kernel.gram(graphs, normalize=True)
        mapped = _memmap_gram(kernel, graphs, tmp_path, normalize=True)
        expected = condition_gram(dense)
        conditioner = GramConditioner().fit(mapped)
        conditioned = conditioner.transform_inplace_tiled(mapped, tile_size=3)
        assert isinstance(conditioned, np.memmap)
        assert np.allclose(np.asarray(conditioned), expected, atol=1e-12)

    def test_transform_inplace_rejects_foreign_shapes(self, collection):
        graphs, _ = collection
        gram = QJSKUnaligned().gram(graphs)
        conditioner = GramConditioner().fit(gram)
        with pytest.raises(ValidationError):
            conditioner.transform_inplace_tiled(gram[:5, :5])


class TestOutOfCoreCV:
    def test_cv_over_memmap_sink_matches_dense(self, collection, tmp_path):
        graphs, labels = collection
        kernel = QJSKUnaligned()
        reference = cross_validate_graph_kernel(
            kernel, graphs, labels, n_folds=4, n_repeats=2, seed=3
        )
        ctx = ExecutionContext(
            sink_factory=lambda: MemmapSink(str(tmp_path / "cv.npy"))
        )
        out_of_core = cross_validate_graph_kernel(
            kernel, graphs, labels, n_folds=4, n_repeats=2, seed=3, ctx=ctx
        )
        assert out_of_core.mean_accuracy == reference.mean_accuracy
        assert out_of_core.best_c == reference.best_c

    def test_sink_and_store_are_exclusive(self, collection, tmp_path):
        graphs, labels = collection
        with pytest.raises(ValidationError, match="not both"):
            cross_validate_graph_kernel(
                QJSKUnaligned(),
                graphs,
                labels,
                ctx=ExecutionContext(
                    sink_factory=lambda: MemmapSink(str(tmp_path / "x.npy")),
                    store=ArtifactStore(str(tmp_path / "store")),
                ),
            )

    def test_ensure_psd_out_of_core_refused(self, collection, tmp_path):
        """The CV wrapper refuses through the same ExecutionContext.validate
        error as gram, naming the offending fields."""
        graphs, labels = collection
        kernel = QJSKUnaligned()
        ctx = ExecutionContext(
            sink_factory=lambda: MemmapSink(str(tmp_path / "psd.npy"))
        )
        with pytest.raises(ValidationError, match="offending fields"):
            cross_validate_graph_kernel(
                kernel, graphs, labels, ctx=ctx, ensure_psd=True,
                n_folds=4, n_repeats=1, seed=3,
            )
        with pytest.raises(ValidationError, match="offending fields"):
            kernel.gram(graphs, ensure_psd=True, ctx=ctx)

    def test_store_miss_is_tile_checkpointed(self, collection, tmp_path):
        """A CV run with a store leaves per-tile artifacts behind (the
        kill-resume substrate), and reruns reproduce the result."""
        graphs, labels = collection
        store = ArtifactStore(str(tmp_path / "store"))
        ctx = ExecutionContext(store=store)
        kernel = QJSKUnaligned()
        first = cross_validate_graph_kernel(
            kernel, graphs, labels, n_folds=4, n_repeats=1, seed=3, ctx=ctx
        )
        from repro.store import tile_keyer_for

        keyer = tile_keyer_for(kernel, graphs)
        tile = BatchedEngine().tile_size
        first_tile = (0, min(tile, len(graphs)))
        assert store.has(
            "gram-tile", keyer.key(first_tile, first_tile, diagonal=True)
        )
        again = cross_validate_graph_kernel(
            kernel, graphs, labels, n_folds=4, n_repeats=1, seed=3, ctx=ctx
        )
        assert again.mean_accuracy == first.mean_accuracy


class TestNystromTileCheckpoint:
    def test_killed_fit_resumes_from_tiles(self, collection, tmp_path):
        """Drop the whole-rectangle cache after a fit: the refit restores
        the N·m stage tile by tile instead of recomputing it."""
        graphs, _ = collection
        store = ArtifactStore(str(tmp_path / "store"))
        ctx = ExecutionContext(engine=BatchedEngine(tile_size=4), store=store)

        # The counter lives outside the instance so both runs share one
        # class (tile keys hash the kernel class + public configuration).
        calls = {"n": 0}
        original = QJSKUnaligned.block_values

        class _Counting(QJSKUnaligned):
            def block_values(self, a, b):
                calls["n"] += 1
                return original(self, a, b)

            symmetric_block_values = block_values

        kernel = _Counting()
        fitted = NystromApproximation(
            kernel, n_landmarks=5, seed=0, ctx=ctx
        ).fit(graphs)
        assert calls["n"] > 0

        # Simulate losing the whole-rect artifact (a kill between the
        # tile stream and the rectangle commit): only tiles survive.
        from repro.graphs.hashing import collection_digest
        from repro.store import artifact_key

        key = artifact_key(
            "nystrom-cross",
            kernel.fingerprint(),
            collection_digest(graphs),
            ",".join(str(int(i)) for i in fitted.landmark_indices_),
        )
        store.discard("nystrom", key)

        calls["n"] = 0
        refit = NystromApproximation(
            _Counting(), n_landmarks=5, seed=0, ctx=ctx
        ).fit(graphs)
        assert calls["n"] == 0  # every tile restored, nothing recomputed
        assert np.allclose(
            refit.embedding_, fitted.embedding_, atol=1e-12, rtol=0.0
        )
