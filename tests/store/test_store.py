"""Tests for the content-addressed artifact store and its key machinery."""

import os

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.errors import ValidationError
from repro.graphs import generators as gen
from repro.graphs.hashing import collection_digest, graph_digest
from repro.kernels import HAQJSKKernelD, QJSKUnaligned, WeisfeilerLehmanKernel
from repro.store import (
    ArtifactStore,
    IncrementalGram,
    artifact_key,
    gram_key,
    store_backed_gram,
)


@pytest.fixture
def graphs():
    return [
        gen.cycle_graph(6),
        gen.path_graph(7),
        gen.star_graph(7),
        gen.random_tree(8, seed=3),
    ]


class TestGraphDigest:
    def test_deterministic_and_content_addressed(self):
        a = gen.cycle_graph(6)
        b = gen.cycle_graph(6)
        assert graph_digest(a) == graph_digest(b)

    def test_name_is_cosmetic(self):
        a = gen.cycle_graph(6)
        b = gen.cycle_graph(6)
        b.name = "renamed"
        assert graph_digest(a) == graph_digest(b)

    def test_structure_sensitivity(self):
        assert graph_digest(gen.cycle_graph(6)) != graph_digest(gen.path_graph(6))

    def test_label_sensitivity(self):
        plain = gen.path_graph(4)
        labelled = plain.with_labels([0, 1, 1, 0])
        assert graph_digest(plain) != graph_digest(labelled)

    def test_permutation_changes_digest(self):
        # A representation hash, not an isomorphism invariant — just like
        # the Gram matrix rows it addresses. (The permutation must actually
        # move the adjacency matrix: reversing a path would not.)
        g = gen.path_graph(5)
        permuted = g.permuted([1, 0, 2, 3, 4])
        assert not np.array_equal(g.adjacency, permuted.adjacency)
        assert graph_digest(g) != graph_digest(permuted)

    def test_rejects_non_graph(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            graph_digest(np.eye(3))


class TestCollectionDigest:
    def test_order_sensitive(self, graphs):
        assert collection_digest(graphs) != collection_digest(graphs[::-1])

    def test_count_sensitive(self, graphs):
        assert collection_digest(graphs) != collection_digest(graphs[:-1])

    def test_deterministic(self, graphs):
        assert collection_digest(graphs) == collection_digest(list(graphs))


class TestKernelFingerprint:
    def test_same_config_same_fingerprint(self):
        assert QJSKUnaligned(mu=2.0).fingerprint() == QJSKUnaligned(mu=2.0).fingerprint()

    def test_config_changes_fingerprint(self):
        assert QJSKUnaligned(mu=1.0).fingerprint() != QJSKUnaligned(mu=2.0).fingerprint()

    def test_class_disambiguates(self):
        assert QJSKUnaligned().fingerprint() != WeisfeilerLehmanKernel(3).fingerprint()

    def test_engine_is_excluded(self):
        # Kernels pickled into older bundles still carry an ``engine``
        # attribute; scheduling never changes values, so it stays out.
        a = QJSKUnaligned()
        b = QJSKUnaligned()
        b.engine = "process"
        assert a.fingerprint() == b.fingerprint()

    def test_nested_config_is_covered(self):
        a = HAQJSKKernelD(n_prototypes=8, n_levels=2, seed=0)
        b = HAQJSKKernelD(n_prototypes=16, n_levels=2, seed=0)
        assert a.fingerprint() != b.fingerprint()

    def test_frozen_reference_enters_fingerprint(self, graphs):
        a = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        unfrozen = a.fingerprint()
        a.freeze(graphs[:3])
        frozen_small = a.fingerprint()
        a.freeze(graphs)
        frozen_all = a.fingerprint()
        assert len({unfrozen, frozen_small, frozen_all}) == 3


class TestGramKey:
    def test_options_distinguish(self, graphs):
        kernel = QJSKUnaligned()
        raw = gram_key(kernel, graphs)
        normalized = gram_key(kernel, graphs, normalize=True)
        psd = gram_key(kernel, graphs, ensure_psd=True)
        extra = gram_key(kernel, graphs, extra={"conditioned": True})
        assert len({raw, normalized, psd, extra}) == 4

    def test_artifact_key_separates_parts(self):
        assert artifact_key("ab", "c") != artifact_key("a", "bc")


class TestArtifactStore:
    def test_array_roundtrip(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        array = np.arange(12.0).reshape(3, 4)
        path = store.put_array("gram", "k1", array)
        assert os.path.exists(path)
        assert np.array_equal(store.get_array("gram", "k1"), array)
        assert store.has("gram", "k1")
        assert store.get_array("gram", "missing") is None
        assert not store.has("gram", "missing")

    def test_object_roundtrip(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        payload = {"states": [np.eye(2), np.ones(3)], "n": 7}
        store.put_object("states", "k1", payload)
        loaded = store.get_object("states", "k1")
        assert loaded["n"] == 7
        assert np.array_equal(loaded["states"][0], np.eye(2))
        assert store.get_object("states", "missing", default="nope") == "nope"

    def test_survives_process_boundary(self, tmp_path, graphs):
        """Same root, fresh store object — the warm-restart property."""
        root = str(tmp_path / "store")
        kernel = QJSKUnaligned()
        key = gram_key(kernel, graphs)
        ArtifactStore(root).put_array("gram", key, kernel.gram(graphs))
        reloaded = ArtifactStore(root).get_array("gram", key)
        assert np.allclose(reloaded, kernel.gram(graphs))

    def test_memory_layer_is_bounded(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"), max_memory_entries=2)
        for i in range(5):
            store.put_array("gram", f"k{i}", np.full((2, 2), float(i)))
        assert len(store._memory) == 2
        # Disk still holds everything the memory layer evicted.
        assert np.allclose(store.get_array("gram", "k0"), 0.0)

    def test_discard_removes_memory_and_disk(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_array("gram", "k1", np.eye(2))
        store.discard("gram", "k1")
        assert not store.has("gram", "k1")
        assert store.get_array("gram", "k1") is None
        store.discard("gram", "never-existed")  # no-op, no error

    def test_returned_arrays_are_read_only(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.put_array("gram", "k1", np.eye(2))
        loaded = store.get_array("gram", "k1")
        with pytest.raises(ValueError):
            loaded[0, 0] = 99.0
        # The caller's own array stays writable (defensive copy on put).
        original = np.eye(2)
        store.put_array("gram", "k2", original)
        original[0, 0] = 5.0  # must not raise, must not poison the store
        assert store.get_array("gram", "k2")[0, 0] == 1.0

    def test_rejects_unsafe_keys(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with pytest.raises(ValidationError):
            store.path_for("gram", "../escape")
        with pytest.raises(ValidationError):
            store.path_for("bad/kind", "key")
        with pytest.raises(ValidationError):
            ArtifactStore("")


class _CountingKernel(QJSKUnaligned):
    """QJSK counting the Grams it computes (its tile-stream hook, which
    every computed Gram runs once; a store hit runs it zero times).

    The counter lives in an underscore attribute on purpose: public
    instance attributes are configuration and enter the fingerprint, so a
    public mutable counter would change the kernel's store key mid-test.
    """

    def __init__(self):
        super().__init__()
        self._counter = [0]

    @property
    def grams_computed(self) -> int:
        return self._counter[0]

    def _compute_gram_into(self, *args, **kwargs):
        self._counter[0] += 1
        return super()._compute_gram_into(*args, **kwargs)


class TestStoreBackedGram:
    def test_computes_once(self, tmp_path, graphs):
        store = ArtifactStore(str(tmp_path / "store"))
        kernel = _CountingKernel()
        first = store_backed_gram(kernel, graphs, store)
        second = store_backed_gram(kernel, graphs, store)
        assert kernel.grams_computed == 1
        assert np.array_equal(first, second)

    def test_none_store_passthrough(self, graphs):
        kernel = _CountingKernel()
        gram = store_backed_gram(kernel, graphs, None)
        assert kernel.grams_computed == 1
        assert gram.shape == (len(graphs), len(graphs))

    def test_options_are_part_of_the_key(self, tmp_path, graphs):
        # WLSK has a non-unit diagonal, so normalisation visibly changes
        # the matrix (QJSK's diagonal is already 1).
        store = ArtifactStore(str(tmp_path / "store"))
        kernel = WeisfeilerLehmanKernel(2)
        raw = store_backed_gram(kernel, graphs, store)
        normalized = store_backed_gram(kernel, graphs, store, normalize=True)
        assert not np.allclose(raw, normalized)
        assert np.allclose(np.diag(normalized), 1.0)


class TestIncrementalGram:
    def test_grows_and_matches_scratch(self, graphs):
        kernel = QJSKUnaligned()
        inc = IncrementalGram(kernel, graphs[:2])
        inc.extend(graphs[2:])
        assert len(inc) == len(graphs)
        assert np.allclose(inc.gram, kernel.gram(graphs), atol=1e-10)

    def test_starts_empty(self, graphs):
        kernel = QJSKUnaligned()
        inc = IncrementalGram(kernel)
        assert inc.gram.shape == (0, 0)
        inc.extend(graphs)
        assert np.allclose(inc.gram, kernel.gram(graphs), atol=1e-10)

    def test_warm_restart_skips_recompute(self, tmp_path, graphs):
        root = str(tmp_path / "store")
        store = ArtifactStore(root)
        kernel = _CountingKernel()
        IncrementalGram(kernel, graphs, ctx=ExecutionContext(store=store))
        assert kernel.grams_computed == 1
        restarted = IncrementalGram(
            kernel, graphs, ctx=ExecutionContext(store=ArtifactStore(root))
        )
        assert kernel.grams_computed == 1  # loaded, not recomputed
        assert np.allclose(restarted.gram, QJSKUnaligned().gram(graphs))

    def test_extended_gram_is_persisted(self, tmp_path, graphs):
        store = ArtifactStore(str(tmp_path / "store"))
        kernel = QJSKUnaligned()
        inc = IncrementalGram(kernel, graphs[:2], ctx=ExecutionContext(store=store))
        inc.extend(graphs[2:])
        key = gram_key(kernel, graphs)
        assert np.allclose(store.get_array("gram", key), inc.gram)

    def test_superseded_intermediates_are_pruned(self, tmp_path, graphs):
        """Disk growth stays bounded: initial + latest Gram only."""
        store = ArtifactStore(str(tmp_path / "store"))
        kernel = QJSKUnaligned()
        inc = IncrementalGram(kernel, graphs[:1], ctx=ExecutionContext(store=store))
        inc.extend(graphs[1:2])
        inc.extend(graphs[2:3])
        inc.extend(graphs[3:])
        initial_key = gram_key(kernel, graphs[:1])
        latest_key = gram_key(kernel, graphs)
        assert store.has("gram", initial_key)  # warm-restart anchor kept
        assert store.has("gram", latest_key)
        for upto in (2, 3):  # the intermediates are gone
            assert not store.has("gram", gram_key(kernel, graphs[:upto]))


class TestMLRouting:
    def test_cross_validation_reuses_store(self, tmp_path):
        from repro.ml import cross_validate_graph_kernel

        class_a = [gen.random_tree(8, seed=i) for i in range(5)]
        class_b = [
            gen.erdos_renyi(8, 0.6, seed=50 + i).largest_component()
            for i in range(5)
        ]
        graphs = class_a + class_b
        labels = [0] * 5 + [1] * 5
        ctx = ExecutionContext(store=ArtifactStore(str(tmp_path / "store")))
        kernel = _CountingKernel()
        first = cross_validate_graph_kernel(
            kernel, graphs, labels, n_folds=2, n_repeats=1, seed=0, ctx=ctx
        )
        second = cross_validate_graph_kernel(
            kernel, graphs, labels, n_folds=2, n_repeats=1, seed=0, ctx=ctx
        )
        assert kernel.grams_computed == 1
        assert first.mean_accuracy == second.mean_accuracy

    def test_nystrom_reuses_store(self, tmp_path, graphs):
        from repro.ml.nystrom import NystromApproximation

        store = ArtifactStore(str(tmp_path / "store"))
        kernel = QJSKUnaligned()
        ctx = ExecutionContext(store=store)
        first = NystromApproximation(
            kernel, n_landmarks=2, seed=0, ctx=ctx
        ).fit(graphs)
        second = NystromApproximation(
            kernel, n_landmarks=2, seed=0, ctx=ctx
        ).fit(graphs)
        assert np.allclose(first.approximate_gram(), second.approximate_gram())
        assert store.has(
            "nystrom",
            _nystrom_key(kernel, graphs, first.landmark_indices_),
        )

    def test_table4_cell_resumes_from_store(self, tmp_path, monkeypatch):
        from repro.experiments.table4 import evaluate_cell

        ctx = ExecutionContext(store=ArtifactStore(str(tmp_path / "store")))
        first = evaluate_cell("QJSK", "MUTAG", seed=0, n_repeats=1, ctx=ctx)
        second = evaluate_cell("QJSK", "MUTAG", seed=0, n_repeats=1, ctx=ctx)
        assert first["gram_cached"] is False
        assert second["gram_cached"] is True
        assert first["accuracy"] == second["accuracy"]


class TestFrozenSystemPersistence:
    def test_frozen_system_roundtrips_through_store(self, tmp_path, graphs):
        """A serving process can warm-restart its frozen HAQJSK system
        from the store instead of refitting prototypes."""
        store = ArtifactStore(str(tmp_path / "store"))
        kernel = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=4, seed=0)
        kernel.freeze(graphs[:3])
        reference_gram = kernel.gram(graphs)
        store.put_object("frozen-system", "ref", kernel.aligner.frozen_)

        restarted = HAQJSKKernelD(
            n_prototypes=8, n_levels=2, max_layers=4, seed=0
        )
        restarted.aligner.frozen_ = ArtifactStore(
            str(tmp_path / "store")
        ).get_object("frozen-system", "ref")
        assert restarted.collection_independent
        assert restarted.fingerprint() == kernel.fingerprint()
        assert np.allclose(restarted.gram(graphs), reference_gram, atol=1e-10)


def _nystrom_key(kernel, graphs, landmarks):
    return artifact_key(
        "nystrom-cross",
        kernel.fingerprint(),
        collection_digest(graphs),
        ",".join(str(int(i)) for i in landmarks),
    )
