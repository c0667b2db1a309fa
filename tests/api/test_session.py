"""Session facade: bit-identical to the library entry points it wraps.

Acceptance: for HAQJSK, QJSK and WLSK across the serial and batched
backends, ``Session.gram`` equals ``kernel.gram(ctx=...)`` bit for bit,
``Session.cross_validate`` reproduces ``cross_validate_graph_kernel``'s
CV accuracy exactly, and ``Session.train``/``predict`` serve the labels
of ``train_bundle`` + ``PredictionService``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionContext, Session
from repro.errors import ServingError, ValidationError
from repro.kernels import KernelSpec, make
from repro.ml.cross_validation import cross_validate_graph_kernel
from repro.serve.bundle import train_bundle
from repro.serve.service import PredictionService
from repro.store import ArtifactStore

#: Small, fast parameterisations of the three acceptance kernels.
SPECS = {
    "HAQJSK(D)": KernelSpec(
        "HAQJSK(D)", n_prototypes=4, n_levels=2, max_layers=3, seed=0
    ),
    "QJSK": KernelSpec("QJSK"),
    "WLSK": KernelSpec("WLSK", n_iterations=3),
}

ENGINES = ("serial", "batched")


def direct_kernel(name):
    return SPECS[name].make()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_gram_bit_identical(api_collection, name, engine):
    graphs, _ = api_collection
    ctx = ExecutionContext(engine=engine)
    direct = direct_kernel(name).gram(graphs, ctx=ctx)
    modern = Session(ctx).gram(SPECS[name], graphs)
    assert np.array_equal(direct, modern)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_cross_validate_accuracy_identical(api_collection, name, engine):
    graphs, labels = api_collection
    ctx = ExecutionContext(engine=engine)
    direct = cross_validate_graph_kernel(
        direct_kernel(name), graphs, labels,
        ctx=ctx, n_folds=4, n_repeats=2, seed=11,
    )
    modern = Session(ctx).cross_validate(
        SPECS[name], graphs, labels, n_folds=4, n_repeats=2, seed=11
    )
    assert direct.mean_accuracy == modern.mean_accuracy
    assert direct.per_repeat == modern.per_repeat
    assert direct.best_c == modern.best_c


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_served_labels_identical(api_collection, name, engine):
    graphs, labels = api_collection
    train_graphs, train_labels = graphs[2:], labels[2:]
    newcomers = graphs[:2]

    kernel = direct_kernel(name)
    if not kernel.collection_independent and hasattr(kernel, "freeze"):
        kernel.freeze(train_graphs)
    ctx = ExecutionContext(engine=engine)
    direct_bundle = train_bundle(
        kernel, train_graphs, train_labels, c=10.0, ctx=ctx, seed=0
    )
    direct = PredictionService(direct_bundle, ctx=ctx).predict(newcomers)

    session = Session(ctx)
    bundle = session.train(
        SPECS[name], train_graphs, train_labels, c=10.0, seed=0
    )
    modern = session.predict(bundle, newcomers)
    assert np.array_equal(direct.labels, modern.labels)
    assert np.array_equal(direct.margins, modern.margins)
    assert np.array_equal(direct.votes, modern.votes)


class TestBundleRecords:
    def test_train_records_spec_and_context(self, api_collection, tmp_path):
        graphs, labels = api_collection
        ctx = ExecutionContext(
            engine="serial", store=ArtifactStore(str(tmp_path / "store"))
        )
        session = Session(ctx)
        bundle = session.train(
            SPECS["WLSK"], graphs, labels, c=1.0, name="recorded"
        )
        # Round-trippable provenance records.
        spec = KernelSpec.from_dict(bundle.kernel_spec)
        assert spec.name == "WLSK"
        assert spec.param_dict["n_iterations"] == 3
        rebuilt = ExecutionContext.from_record(bundle.context_record)
        assert rebuilt.engine == "serial"
        assert rebuilt.store.root == ctx.store.root
        # The persisted bundle carries the records across processes.
        from repro.serve.bundle import ModelBundle

        loaded = ModelBundle.load(ctx.store, "recorded")
        assert loaded.kernel_spec == bundle.kernel_spec
        assert loaded.context_record == bundle.context_record

    def test_retrain_under_name_invalidates_cached_service(
        self, api_collection, tmp_path
    ):
        graphs, labels = api_collection
        session = Session(
            ExecutionContext(store=ArtifactStore(str(tmp_path / "store")))
        )
        session.train(SPECS["WLSK"], graphs, labels, c=1.0, name="prod")
        first = session.service("prod")
        # Retraining with flipped labels must supersede the cached service.
        session.train(SPECS["WLSK"], graphs, 1 - labels, c=1.0, name="prod")
        second = session.service("prod")
        assert second is not first
        flipped = session.predict("prod", graphs[:4]).labels
        assert np.array_equal(flipped, 1 - labels[:4])

    def test_gram_honours_context_store(self, api_collection, tmp_path):
        """kernel.gram(ctx=ctx-with-store) is content-addressed, exactly
        as the ExecutionContext docs promise."""
        graphs, _ = api_collection
        store = ArtifactStore(str(tmp_path / "grams"))
        ctx = ExecutionContext(store=store)
        kernel = make("WLSK", n_iterations=3)
        first = kernel.gram(graphs, ctx=ctx)
        second = kernel.gram(graphs, ctx=ctx)
        assert np.array_equal(first, second)
        # Store-backed arrays are immutable artifacts — the hit proves
        # the second call read the store rather than recomputing.
        assert not second.flags.writeable
        from repro.store import gram_key

        assert store.has("gram", gram_key(kernel, graphs))

    def test_predict_by_name_round_trip(self, api_collection, tmp_path):
        graphs, labels = api_collection
        ctx = ExecutionContext(store=ArtifactStore(str(tmp_path / "store")))
        session = Session(ctx)
        bundle = session.train(SPECS["WLSK"], graphs, labels, c=1.0, name="svc")
        by_name = session.predict("svc", graphs[:3])
        by_object = session.predict(bundle, graphs[:3])
        assert np.array_equal(by_name.labels, by_object.labels)
        # The service is cached per reference.
        assert session.service("svc") is session.service("svc")


class TestSessionValidation:
    def test_invalid_context_rejected_up_front(self, tmp_path):
        from repro.engine import MemmapSink

        ctx = ExecutionContext(
            store=ArtifactStore(str(tmp_path / "s")),
            sink_factory=lambda: MemmapSink(str(tmp_path / "g.npy")),
        )
        with pytest.raises(ValidationError, match="not.*both"):
            Session(ctx)

    def test_train_name_needs_store(self, api_collection):
        graphs, labels = api_collection
        session = Session(ExecutionContext())
        with pytest.raises(ValidationError, match="store"):
            session.train(SPECS["WLSK"], graphs, labels, c=1.0, name="x")

    def test_predict_by_name_needs_store(self, api_collection):
        session = Session(ExecutionContext())
        with pytest.raises(ServingError, match="store"):
            session.predict("ghost", api_collection[0][:1])

    def test_dataset_object_accepted(self, api_collection):
        graphs, labels = api_collection

        class DatasetLike:
            pass

        dataset = DatasetLike()
        dataset.graphs = graphs
        dataset.targets = labels
        session = Session(ExecutionContext(engine="serial"))
        result = session.cross_validate(
            "WLSK", dataset, n_folds=4, n_repeats=1, seed=2
        )
        explicit = session.cross_validate(
            "WLSK", graphs, labels, n_folds=4, n_repeats=1, seed=2
        )
        assert result.mean_accuracy == explicit.mean_accuracy

    def test_normalize_policy_flows_from_context(self, api_collection):
        graphs, _ = api_collection
        raw = Session(ExecutionContext()).gram("WLSK", graphs)
        normalized = Session(ExecutionContext(normalize=True)).gram(
            "WLSK", graphs
        )
        assert not np.array_equal(raw, normalized)
        assert np.allclose(np.diag(normalized), 1.0)
