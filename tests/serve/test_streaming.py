"""Bounded-memory serving: ``max_block_graphs`` streaming and the
training-diagonal cosine regression.

``max_block_graphs`` must change *when* cross pairs are evaluated, never
*which* or *how many* — chunked and one-shot services agree row for row
and pair for pair. The cosine regression pins that serving normalisation
provably scales columns with the **stored training diagonal** (the shared
``cosine_scale`` policy), not with self-similarities recomputed from any
other collection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.errors import ValidationError
from repro.graphs import generators as gen
from repro.kernels import QJSKUnaligned, WeisfeilerLehmanKernel
from repro.kernels.base import cosine_scale, normalize_gram_block
from repro.serve import PredictionService, train_bundle

C = 10.0


def _collection():
    trees = [gen.random_tree(9, seed=i) for i in range(6)]
    dense = [
        gen.erdos_renyi(10, 0.45, seed=i).largest_component() for i in range(6)
    ]
    graphs = trees + dense
    labels = np.array([0] * 6 + [1] * 6)
    order = np.arange(12).reshape(2, 6).T.reshape(-1)
    return [graphs[i] for i in order], labels[order]


@pytest.fixture(scope="module")
def split():
    graphs, labels = _collection()
    return graphs[:8], labels[:8], graphs[8:]


@pytest.fixture(scope="module")
def bundle(split):
    train_graphs, train_y, _ = split
    return train_bundle(
        QJSKUnaligned(), train_graphs, train_y, c=C, normalize=True
    )


class TestMaxBlockGraphs:
    @pytest.mark.parametrize("step", [1, 2, 3, 100])
    def test_chunked_rows_equal_one_shot(self, bundle, split, step):
        _, _, newcomers = split
        one_shot = PredictionService(bundle)
        chunked = PredictionService(bundle, max_block_graphs=step)
        assert np.allclose(
            chunked.conditioned_rows(newcomers),
            one_shot.conditioned_rows(newcomers),
            atol=1e-12,
            rtol=0.0,
        )
        assert np.array_equal(
            chunked.predict(newcomers).labels,
            one_shot.predict(newcomers).labels,
        )

    def test_feature_map_chunking(self, split):
        train_graphs, train_y, newcomers = split
        bundle = train_bundle(
            WeisfeilerLehmanKernel(3), train_graphs, train_y, c=C,
            normalize=True,
        )
        one_shot = PredictionService(bundle)
        chunked = PredictionService(bundle, max_block_graphs=2)
        assert np.allclose(
            chunked.conditioned_rows(newcomers),
            one_shot.conditioned_rows(newcomers),
            atol=1e-12,
            rtol=0.0,
        )

    def test_pair_budget_unchanged_by_chunking(self, split):
        """Streaming bounds concurrency, not work: exactly ΔN·|S| cross
        pairs + ΔN self-similarities, same as one-shot."""
        train_graphs, train_y, newcomers = split

        calls = {"n": 0}
        original = QJSKUnaligned.pair_value

        class _Counting(QJSKUnaligned):
            def pair_value(self, a, b):
                calls["n"] += 1
                return original(self, a, b)

        bundle = train_bundle(
            _Counting(), train_graphs, train_y, c=C, normalize=True
        )
        service = PredictionService(
            bundle, ctx=ExecutionContext(engine="serial"), max_block_graphs=2
        )
        calls["n"] = 0
        service.predict(newcomers)
        assert calls["n"] == len(newcomers) * service.support.size + len(newcomers)

    def test_newcomers_prepared_once_per_chunk(self, split):
        """The cross block and the cosine self-similarities share one
        prepare of each chunk's newcomers."""
        train_graphs, train_y, newcomers = split

        prepared = []
        original = QJSKUnaligned.prepare

        class _Counting(QJSKUnaligned):
            def prepare(self, graphs):
                prepared.append(len(graphs))
                return original(self, graphs)

        bundle = train_bundle(
            _Counting(), train_graphs, train_y, c=C, normalize=True
        )
        service = PredictionService(bundle, max_block_graphs=2)
        service.predict(newcomers)  # also prepares the training states
        prepared.clear()
        service.predict(newcomers)
        assert prepared == [2, 2]

    def test_validation(self, bundle):
        with pytest.raises(ValidationError, match="max_block_graphs"):
            PredictionService(bundle, max_block_graphs=0)

    @pytest.mark.parametrize("step", [None, 2])
    def test_empty_batch_yields_empty_rows(self, bundle, step):
        """conditioned_rows([]) is public API (the equivalence tests use
        it): an empty batch must yield a (0, N) block, not a vstack
        crash, chunked or not."""
        service = PredictionService(bundle, max_block_graphs=step)
        rows = service.conditioned_rows([])
        assert rows.shape == (0, len(bundle.training_graphs))
        assert len(service.predict([])) == 0

    def test_info_reports_knob(self, bundle):
        service = PredictionService(bundle, max_block_graphs=7)
        assert service.info()["max_block_graphs"] == 7


class TestTrainingDiagonalRegression:
    def test_columns_scale_with_stored_training_diagonal(self, bundle, split):
        """Perturbing the bundle's stored train diagonal must move the
        normalised rows exactly as the shared cosine_scale helper
        predicts — proof the serving path reads the *training* diagonal,
        not statistics of the newcomer block."""
        _, _, newcomers = split
        service = PredictionService(bundle)
        baseline = service._cosine_normalized(
            np.ones((len(newcomers), len(bundle.training_graphs))), newcomers
        )

        perturbed = np.asarray(bundle.train_diagonal, dtype=float) * 4.0
        object.__setattr__(bundle, "train_diagonal", perturbed)
        try:
            scaled = service._cosine_normalized(
                np.ones((len(newcomers), len(bundle.training_graphs))),
                newcomers,
            )
        finally:
            object.__setattr__(bundle, "train_diagonal", perturbed / 4.0)
        # 1/sqrt(4 K_ii): every column shrinks by exactly 2.
        assert np.allclose(scaled * 2.0, baseline, atol=1e-12, rtol=0.0)

    def test_normalized_rows_match_training_gram_geometry(self, bundle, split):
        """Serving rows equal K(new, train) scaled by the newcomers' own
        self-similarities and the *training Gram's* diagonal — the same
        cosine_scale policy normalize_gram applied at train time."""
        _, _, newcomers = split
        service = PredictionService(bundle)
        kernel = bundle.kernel
        raw = kernel.cross_gram(newcomers, bundle.training_graphs)
        new_diag = np.array([kernel(g, g) for g in newcomers])
        expected = normalize_gram_block(
            raw,
            cosine_scale(new_diag),
            cosine_scale(bundle.train_diagonal),
        )
        rows = service._cosine_normalized(np.asarray(raw, float), newcomers)
        assert np.allclose(rows, expected, atol=1e-12, rtol=0.0)


class TestCosineScaleHelper:
    def test_non_positive_diagonal_treated_as_one(self):
        scale = cosine_scale(np.array([4.0, 0.0, -3.0]))
        assert np.allclose(scale, [0.5, 1.0, 1.0])

    def test_normalize_gram_block_composes_to_normalize_gram(self):
        from repro.kernels.base import normalize_gram

        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 3))
        gram = x @ x.T
        scale = cosine_scale(np.diag(gram))
        assert np.array_equal(
            normalize_gram_block(gram, scale, scale), normalize_gram(gram)
        )
