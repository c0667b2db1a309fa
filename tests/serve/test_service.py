"""Serving-equivalence and pair-budget tests for :mod:`repro.serve`.

The acceptance bar: bundle predictions on held-out graphs must exactly
match the labels of the transductive full-Gram protocol (condition the
whole train+test Gram, fit on the train block, predict the test rows) for
frozen / collection-independent kernels — while evaluating only the
``(ΔN, N)`` cross pairs, proven with a counting kernel the way
``benchmarks/bench_incremental_gram.py`` proves the ``gram_extend``
budget.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import ExecutionContext, KernelSpec, Session
from repro.datasets import load_dataset
from repro.errors import KernelError, ServingError, ValidationError
from repro.graphs import generators as gen
from repro.kernels import HAQJSKKernelD, QJSKUnaligned, WeisfeilerLehmanKernel
from repro.ml import GramConditioner, KernelSVC, condition_gram
from repro.serve import ModelBundle, PredictionService, train_bundle
from repro.store import ArtifactStore

#: Fixed box constraint so the transductive baseline and the bundle train
#: the same machine (C selection uses randomised inner folds).
C = 10.0

#: The serial backend: the counting kernels below count ``pair_value``.
SERIAL = ExecutionContext(engine="serial")


def _make_collection():
    """12 graphs, two structural classes (trees vs dense ER components)."""
    trees = [gen.random_tree(9, seed=i) for i in range(6)]
    dense = [gen.erdos_renyi(10, 0.45, seed=i).largest_component() for i in range(6)]
    graphs = trees + dense
    labels = np.array([0] * 6 + [1] * 6)
    # Interleave so train and held-out slices both carry both classes.
    order = np.arange(12).reshape(2, 6).T.reshape(-1)
    return [graphs[i] for i in order], labels[order]


@pytest.fixture(scope="module")
def collection():
    return _make_collection()


@pytest.fixture(scope="module")
def split(collection):
    graphs, labels = collection
    return (graphs[:8], labels[:8], graphs[8:], labels[8:])


def _serving_kernels(reference):
    frozen = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=3, seed=0)
    frozen.freeze(reference)
    return {
        "HAQJSK(D)-frozen": frozen,
        "QJSK": QJSKUnaligned(),
        "WLSK": WeisfeilerLehmanKernel(3),
    }


def _transductive_labels(kernel, train_graphs, train_y, new_graphs, *, normalize):
    """The paper-protocol baseline: full Gram, transductive conditioning."""
    everything = list(train_graphs) + list(new_graphs)
    full = kernel.gram(everything, normalize=normalize)
    conditioned = condition_gram(full)
    n = len(train_graphs)
    train_idx = np.arange(n)
    test_idx = np.arange(n, len(everything))
    model = KernelSVC(c=C).fit(conditioned[np.ix_(train_idx, train_idx)], train_y)
    return model.predict(conditioned[np.ix_(test_idx, train_idx)])


class TestServingEquivalence:
    """Bundle predictions == in-process combined-collection fit, exactly."""

    @pytest.mark.parametrize("name", ["HAQJSK(D)-frozen", "QJSK", "WLSK"])
    def test_labels_match_transductive_protocol(self, split, name):
        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)[name]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        service = PredictionService(bundle)
        served = service.predict(new_graphs)
        expected = _transductive_labels(
            kernel, train_graphs, train_y, new_graphs, normalize=False
        )
        assert np.array_equal(served.labels, expected)

    def test_labels_match_with_cosine_normalisation(self, split):
        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)["HAQJSK(D)-frozen"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C, normalize=True)
        served = PredictionService(bundle).predict(new_graphs)
        expected = _transductive_labels(
            kernel, train_graphs, train_y, new_graphs, normalize=True
        )
        assert np.array_equal(served.labels, expected)

    def test_margins_shape_and_classes(self, split):
        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)["WLSK"]
        service = PredictionService(train_bundle(kernel, train_graphs, train_y, c=C))
        result = service.predict(new_graphs)
        assert result.labels.shape == (len(new_graphs),)
        assert result.margins.shape == (len(new_graphs), 2)
        assert result.votes.shape == (len(new_graphs), 2)
        assert np.array_equal(result.classes, np.array([0, 1]))
        assert len(result) == len(new_graphs)

    def test_batch_chunking_is_transparent(self, split):
        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)["QJSK"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        whole = PredictionService(bundle).predict(new_graphs)
        chunked = PredictionService(bundle, max_block_graphs=1).predict(new_graphs)
        assert np.array_equal(whole.labels, chunked.labels)
        assert np.allclose(whole.margins, chunked.margins, atol=1e-10)

    def test_engine_backends_agree_on_labels(self, split):
        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)["HAQJSK(D)-frozen"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        serial = PredictionService(bundle, ctx=SERIAL).predict(new_graphs)
        batched = PredictionService(
            bundle, ctx=ExecutionContext(engine="batched")
        ).predict(new_graphs)
        assert np.array_equal(serial.labels, batched.labels)
        assert np.allclose(serial.margins, batched.margins, atol=1e-9)

    @pytest.mark.parametrize(
        "ctx",
        [
            ExecutionContext(),
            ExecutionContext(engine="batched"),
            ExecutionContext(tile_size=16),
        ],
        ids=["default", "by-name", "tile-size"],
    )
    def test_info_names_the_resolved_engine(self, split, ctx, monkeypatch):
        """One engine, one name: a default context, a named engine and a
        materialised (tile-size) engine all report the backend that runs."""
        monkeypatch.delenv("REPRO_GRAM_ENGINE", raising=False)
        train_graphs, train_y, _, _ = split
        bundle = train_bundle(WeisfeilerLehmanKernel(2), train_graphs, train_y, c=C)
        assert PredictionService(bundle, ctx=ctx).info()["engine"] == "batched"

    def test_conditioned_rows_use_training_statistics(self, split):
        """The inductive-conditioning contract, row by row."""
        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)["QJSK"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        rows = PredictionService(bundle).conditioned_rows(new_graphs)
        raw_cross = kernel.cross_gram(new_graphs, train_graphs)
        raw_train = kernel.gram(train_graphs)
        expected = GramConditioner().fit(raw_train).transform_cross(raw_cross)
        assert np.allclose(rows, expected, atol=1e-10)

    def test_empty_batch(self, split):
        """An empty graph list returns an explicit empty PredictionResult —
        no cross block, no conditioning, no vote pass — whose shapes and
        dtypes exactly match a non-empty prediction sliced to zero rows."""
        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)["WLSK"]
        service = PredictionService(train_bundle(kernel, train_graphs, train_y, c=C))
        result = service.predict([])
        assert result.labels.shape == (0,)
        assert result.votes.shape == (0, 2)
        assert result.margins.shape == (0, 2)
        assert len(result) == 0
        assert np.array_equal(result.classes, np.array([0, 1]))
        # votes and margins must be independent buffers, not one shared
        # array under two names.
        assert result.votes is not result.margins
        nonempty = service.predict(new_graphs[:1])
        assert result.labels.dtype == nonempty.labels.dtype
        assert result.margins.dtype == nonempty.margins.dtype

    def test_empty_batch_runs_no_kernel_math(self, split):
        """The empty path short-circuits before any pair evaluation or
        train-state preparation (it used to fall through to array ops)."""
        train_graphs, train_y, _, _ = split
        kernel = _CountingQJSK()
        service = PredictionService(
            train_bundle(kernel, train_graphs, train_y, c=C), ctx=SERIAL
        )
        before = kernel.pair_calls
        service.predict([])
        assert kernel.pair_calls == before
        assert service._train_states is None  # not even preparation


class _CountingQJSK(QJSKUnaligned):
    """QJSK that counts its pair evaluations (serial backend only)."""

    def __init__(self):
        super().__init__()
        self.pair_calls = 0

    def pair_value(self, state_a, state_b) -> float:
        self.pair_calls += 1
        return super().pair_value(state_a, state_b)


class TestPairBudget:
    """Serving evaluates exactly the N·ΔN cross pairs — no diagonal block,
    no quadratic recompute (the bench_incremental_gram proof, for serve)."""

    def test_predict_costs_exactly_n_times_delta(self, split):
        train_graphs, train_y, new_graphs, _ = split
        kernel = _CountingQJSK()
        bundle = train_bundle(kernel, train_graphs, train_y, c=C, ctx=SERIAL)
        n, delta = len(train_graphs), len(new_graphs)
        service = PredictionService(bundle, ctx=SERIAL)

        kernel.pair_calls = 0
        service.predict(new_graphs)
        assert kernel.pair_calls == n * delta

        # The training states are cached on the service: the second batch
        # pays the same cross budget, nothing more.
        kernel.pair_calls = 0
        service.predict(new_graphs)
        assert kernel.pair_calls == n * delta

    def test_cosine_normalisation_adds_only_delta_self_pairs(self, split):
        train_graphs, train_y, new_graphs, _ = split
        kernel = _CountingQJSK()
        bundle = train_bundle(
            kernel, train_graphs, train_y, c=C, ctx=SERIAL, normalize=True
        )
        n, delta = len(train_graphs), len(new_graphs)
        service = PredictionService(bundle, ctx=SERIAL)
        kernel.pair_calls = 0
        service.predict(new_graphs)
        assert kernel.pair_calls == n * delta + delta


class TestBundlePersistence:
    def test_store_roundtrip_same_process(self, split, tmp_path):
        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)["HAQJSK(D)-frozen"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        store = ArtifactStore(str(tmp_path / "store"))
        path = bundle.save(store, "roundtrip")
        assert os.path.exists(path)
        reloaded = PredictionService.from_store(store, "roundtrip")
        direct = PredictionService(bundle)
        assert np.array_equal(
            reloaded.predict(new_graphs).labels,
            direct.predict(new_graphs).labels,
        )

    def test_fresh_process_roundtrip(self, split, tmp_path):
        """save → load in a *new interpreter* → predict: the labels of the
        serving process match the training process bit for bit."""
        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)["HAQJSK(D)-frozen"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        store = ArtifactStore(str(tmp_path / "store"))
        bundle.save(store, "fresh")
        expected = PredictionService(bundle).predict(new_graphs).labels

        script = """
import numpy as np
from repro.graphs import generators as gen
from repro.serve import PredictionService
from repro.store import ArtifactStore

# Rebuild the held-out newcomers deterministically (seeded generators).
trees = [gen.random_tree(9, seed=i) for i in range(6)]
dense = [gen.erdos_renyi(10, 0.45, seed=i).largest_component() for i in range(6)]
graphs = trees + dense
order = np.arange(12).reshape(2, 6).T.reshape(-1)
newcomers = [graphs[i] for i in order[8:]]

service = PredictionService.from_store(ArtifactStore({root!r}), "fresh")
print(",".join(str(int(l)) for l in service.predict(newcomers).labels))
""".format(root=str(tmp_path / "store"))
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(repo_root, "src"),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True, cwd=repo_root,
        ).stdout.strip()
        served = np.array([int(x) for x in output.split(",")])
        assert np.array_equal(served, expected)

    def test_missing_bundle_is_named_error(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        with pytest.raises(ServingError, match="no bundle named"):
            ModelBundle.load(store, "never-trained")

    def test_tampered_training_graphs_refused(self, split, tmp_path):
        train_graphs, train_y, _, _ = split
        kernel = _serving_kernels(train_graphs)["WLSK"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        bundle.training_graphs = bundle.training_graphs[:-1]
        with pytest.raises(ServingError, match="count changed"):
            bundle.verify()

    def test_swapped_graph_localised_in_error(self, split, collection):
        """Per-graph digests name the tampered index in the refusal."""
        train_graphs, train_y, _, _ = split
        graphs, _ = collection
        kernel = _serving_kernels(train_graphs)["WLSK"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        bundle.training_graphs = (
            bundle.training_graphs[:3]
            + [graphs[11]]
            + bundle.training_graphs[4:]
        )
        with pytest.raises(ServingError, match=r"indices \[3\]"):
            bundle.verify()

    def test_unfrozen_kernel_in_loaded_bundle_refused(self, split):
        train_graphs, train_y, _, _ = split
        kernel = _serving_kernels(train_graphs)["HAQJSK(D)-frozen"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        bundle.kernel.unfreeze()
        with pytest.raises(ServingError):
            bundle.verify()


class TestTrainValidation:
    def test_collection_level_kernel_refused(self, split):
        train_graphs, train_y, _, _ = split
        unfrozen = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=3, seed=0)
        with pytest.raises(KernelError, match="freeze"):
            train_bundle(unfrozen, train_graphs, train_y, c=C)

    def test_label_shape_mismatch(self, split):
        train_graphs, _, _, _ = split
        with pytest.raises(ValidationError):
            train_bundle(WeisfeilerLehmanKernel(2), train_graphs, [0, 1], c=C)

    def test_gram_cached_in_store(self, split, tmp_path):
        """Retraining over the same collection hits the Gram artifact."""
        train_graphs, train_y, _, _ = split
        ctx = SERIAL.replace(store=ArtifactStore(str(tmp_path / "store")))
        first = _CountingQJSK()
        train_bundle(first, train_graphs, train_y, c=C, ctx=ctx)
        assert first.pair_calls > 0

        second = _CountingQJSK()
        train_bundle(second, train_graphs, train_y, c=C, ctx=ctx)
        assert second.pair_calls == 0  # same content key: Gram from store

    @pytest.mark.parametrize("checkpoint", [True, False])
    def test_gram_follows_tile_checkpoint(self, split, tmp_path, checkpoint):
        """The training Gram commits per-tile artifacts exactly when the
        context asks for tile checkpointing."""
        train_graphs, train_y, _, _ = split
        store = ArtifactStore(str(tmp_path / "store"))
        ctx = ExecutionContext(store=store, tile_checkpoint=checkpoint)
        train_bundle(QJSKUnaligned(), train_graphs, train_y, c=C, ctx=ctx)
        assert bool(store.list_keys("gram-tile")) is checkpoint


class TestConcurrentUse:
    """One PredictionService shared across threads — the HTTP server's
    usage pattern — must not corrupt its cached prepared train states."""

    def test_two_threads_prepare_train_states_exactly_once(self, split):
        import threading

        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)["QJSK"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        reference = PredictionService(bundle).predict(new_graphs)

        service = PredictionService(bundle)
        prepare_calls = []
        original_prepare = service.bundle.kernel.prepare

        def counting_prepare(graphs):
            # Record only training-collection preparations; newcomer
            # preparations legitimately happen once per predict call.
            if len(graphs) == len(train_graphs):
                prepare_calls.append(threading.get_ident())
            return original_prepare(graphs)

        service.bundle.kernel.prepare = counting_prepare
        try:
            barrier = threading.Barrier(2)
            results = [None, None]
            errors = []

            def worker(slot):
                try:
                    barrier.wait(timeout=30)
                    for _ in range(3):
                        results[slot] = service.predict(new_graphs)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            service.bundle.kernel.prepare = original_prepare
        assert not errors, errors
        # The _prepare_lock makes the racing first predicts prepare the
        # training states exactly once, not once per thread.
        assert len(prepare_calls) == 1
        for result in results:
            assert result is not None
            assert np.array_equal(result.labels, reference.labels)
            assert np.allclose(result.margins, reference.margins, atol=1e-10)

    def test_many_threads_many_batches_agree_with_solo_predictions(self, split):
        import threading

        train_graphs, train_y, new_graphs, _ = split
        kernel = _serving_kernels(train_graphs)["WLSK"]
        bundle = train_bundle(kernel, train_graphs, train_y, c=C)
        service = PredictionService(bundle)
        batches = [new_graphs[i % 3 : i % 3 + 2] for i in range(6)]
        expected = [PredictionService(bundle).predict(b).labels for b in batches]

        outcomes = [None] * len(batches)
        errors = []

        def worker(index):
            try:
                outcomes[index] = service.predict(batches[index]).labels
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(batches))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        for got, want in zip(outcomes, expected):
            assert np.array_equal(got, want)


#: (training collection, newcomers): a binary and a 5-class problem.
_MARGIN_COLLECTIONS = {
    "MUTAG": (dict(scale=0.25, seed=0), dict(scale=0.1, seed=1)),
    "PPIs": (
        dict(scale=0.1, size_scale=0.3, seed=0),
        dict(scale=0.05, size_scale=0.3, seed=1),
    ),
}


class TestMarginsIndependentOfBatch:
    """A newcomer's margins are the same bytes whichever graphs share its
    predict: one batch, chunks of 1 and 3, or one predict per graph (the
    batcher's "equals solo predicts" promise)."""

    @pytest.mark.parametrize("spec", [
        KernelSpec("HAQJSK(D)", n_prototypes=8, n_levels=2),
        KernelSpec("QJSK"),
        KernelSpec("WLSK"),
    ], ids=lambda spec: spec.name)
    @pytest.mark.parametrize("dataset", sorted(_MARGIN_COLLECTIONS))
    def test_margins_bytes(self, dataset, spec):
        train_kw, new_kw = _MARGIN_COLLECTIONS[dataset]
        train = load_dataset(dataset, **train_kw)
        newcomers = load_dataset(dataset, **new_kw).graphs
        bundle = Session(ExecutionContext()).train(spec, train, c=C)
        service = PredictionService(bundle)
        batch = service.predict(newcomers)
        assert len(batch.classes) == (2 if dataset == "MUTAG" else 5)
        solo = [service.predict([g]) for g in newcomers]
        chunked = [
            PredictionService(bundle, max_block_graphs=size).predict(newcomers)
            for size in (1, 3)
        ]
        stacked = np.vstack([result.margins for result in solo])
        assert stacked.tobytes() == batch.margins.tobytes()
        for result in chunked:
            assert result.margins.tobytes() == batch.margins.tobytes()
            assert np.array_equal(result.labels, batch.labels)
        assert np.array_equal(np.concatenate([r.labels for r in solo]), batch.labels)
