"""Tests for the Nyström Gram approximation."""

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.errors import KernelError, NotFittedError, ValidationError
from repro.graphs import generators as gen
from repro.kernels import HAQJSKKernelD, QJSKUnaligned, WeisfeilerLehmanKernel
from repro.ml.nystrom import NystromApproximation, nystrom_gram


@pytest.fixture(scope="module")
def graphs():
    return (
        [gen.random_tree(9, seed=i) for i in range(6)]
        + [gen.erdos_renyi(10, 0.4, seed=i).largest_component() for i in range(6)]
    )


@pytest.fixture(scope="module")
def kernel():
    return HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=3, seed=0)


@pytest.fixture(scope="module")
def exact_gram(kernel, graphs):
    return kernel.gram(graphs)


class TestExactness:
    def test_all_landmarks_recovers_exact_gram(self, kernel, graphs, exact_gram):
        approx = nystrom_gram(kernel, graphs, n_landmarks=len(graphs))
        assert np.allclose(approx, exact_gram, atol=1e-6)

    def test_landmark_count_capped_at_n(self, kernel, graphs, exact_gram):
        approx = nystrom_gram(kernel, graphs, n_landmarks=500)
        assert np.allclose(approx, exact_gram, atol=1e-6)

    def test_landmark_rows_reproduced_exactly(self, kernel, graphs, exact_gram):
        """Nyström interpolates exactly on the landmark rows/columns."""
        model = NystromApproximation(kernel, n_landmarks=6, seed=1).fit(graphs)
        approx = model.approximate_gram()
        landmarks = model.landmark_indices_
        assert np.allclose(
            approx[np.ix_(landmarks, landmarks)],
            exact_gram[np.ix_(landmarks, landmarks)],
            atol=1e-6,
        )


class TestApproximationQuality:
    def test_error_decreases_with_landmarks(self, kernel, graphs, exact_gram):
        errors = []
        for m in (2, 6, len(graphs)):
            approx = nystrom_gram(kernel, graphs, n_landmarks=m, seed=3)
            errors.append(np.linalg.norm(approx - exact_gram))
        assert errors[-1] <= errors[0] + 1e-9
        assert errors[-1] < 1e-5

    def test_approximation_is_psd(self, kernel, graphs):
        approx = nystrom_gram(kernel, graphs, n_landmarks=4, seed=4)
        assert np.linalg.eigvalsh(approx).min() >= -1e-9

    def test_embedding_reproduces_gram(self, kernel, graphs):
        model = NystromApproximation(kernel, n_landmarks=5, seed=5).fit(graphs)
        assert np.allclose(
            model.embedding_ @ model.embedding_.T,
            model.approximate_gram(),
        )

    def test_deterministic_given_seed(self, kernel, graphs):
        a = nystrom_gram(kernel, graphs, n_landmarks=4, seed=7)
        b = nystrom_gram(kernel, graphs, n_landmarks=4, seed=7)
        assert np.array_equal(a, b)


class TestFeatureMapFallback:
    def test_works_with_feature_map_kernel(self, graphs):
        kernel = WeisfeilerLehmanKernel(n_iterations=2)
        exact = kernel.gram(graphs)
        approx = nystrom_gram(kernel, graphs, n_landmarks=len(graphs))
        assert np.allclose(approx, exact, atol=1e-8)


class TestEngineRouting:
    """The landmark rectangle goes through the pluggable Gram engines."""

    def test_backends_agree(self, kernel, graphs):
        serial = nystrom_gram(
            kernel, graphs, n_landmarks=5, seed=2,
            ctx=ExecutionContext(engine="serial"),
        )
        batched = nystrom_gram(
            kernel, graphs, n_landmarks=5, seed=2,
            ctx=ExecutionContext(engine="batched"),
        )
        assert np.allclose(serial, batched, atol=1e-9)

    def test_engine_stored(self, kernel):
        model = NystromApproximation(
            kernel, n_landmarks=3, ctx=ExecutionContext(engine="batched")
        )
        assert model.ctx.engine == "batched"


class TestOutOfSampleTransform:
    """Newcomer embeddings from the fitted landmark system (serving)."""

    def test_transform_reproduces_fitted_embedding(self, graphs):
        model = NystromApproximation(QJSKUnaligned(), n_landmarks=6, seed=0)
        model.fit(graphs)
        assert np.allclose(model.transform(graphs), model.embedding_, atol=1e-8)

    def test_newcomer_cross_values_recovered_exactly_at_full_rank(self, graphs):
        """With landmarks = the whole fitted collection, ``phi_new phi_trainᵀ``
        equals the true cross Gram (pinv identity Aᵀ(AAᵀ)⁺(AAᵀ) = Aᵀ)."""
        kernel = WeisfeilerLehmanKernel(n_iterations=2)
        train, newcomers = graphs[:9], graphs[9:]
        model = NystromApproximation(kernel, n_landmarks=len(train)).fit(train)
        phi_new = model.transform(newcomers)
        cross = kernel.cross_gram(newcomers, train)
        assert np.allclose(phi_new @ model.embedding_.T, cross, atol=1e-6)

    def test_embedding_dimension_matches_fit(self, graphs):
        model = NystromApproximation(QJSKUnaligned(), n_landmarks=5, seed=1)
        model.fit(graphs[:8])
        phi = model.transform(graphs[8:])
        assert phi.shape == (len(graphs) - 8, model.embedding_.shape[1])

    def test_empty_batch(self, graphs):
        model = NystromApproximation(QJSKUnaligned(), n_landmarks=4, seed=2)
        model.fit(graphs)
        phi = model.transform([])
        assert phi.shape == (0, model.embedding_.shape[1])

    def test_unfrozen_haqjsk_refused(self, kernel, graphs):
        """Collection-level kernels cannot serve newcomers: their landmark
        values would shift with the batch."""
        model = NystromApproximation(kernel, n_landmarks=4, seed=0).fit(graphs)
        with pytest.raises(KernelError):
            model.transform(graphs[:2])

    def test_unfrozen_haqjsk_refused_even_on_empty_batch(self, kernel, graphs):
        """An ineligible pipeline must fail on an empty smoke batch too."""
        model = NystromApproximation(kernel, n_landmarks=4, seed=0).fit(graphs)
        with pytest.raises(KernelError):
            model.transform([])

    def test_frozen_haqjsk_allowed(self, graphs):
        frozen = HAQJSKKernelD(n_prototypes=8, n_levels=2, max_layers=3, seed=0)
        frozen.freeze(graphs[:8])
        model = NystromApproximation(frozen, n_landmarks=5, seed=0)
        model.fit(graphs[:8])
        phi = model.transform(graphs[8:])
        assert phi.shape == (len(graphs) - 8, model.embedding_.shape[1])
        assert np.all(np.isfinite(phi))

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            NystromApproximation(QJSKUnaligned(), n_landmarks=3).transform([])


class TestValidation:
    def test_rejects_non_kernel(self):
        with pytest.raises(ValidationError):
            NystromApproximation(object(), n_landmarks=3)

    def test_rejects_empty_graphs(self, kernel):
        with pytest.raises(ValidationError):
            NystromApproximation(kernel, n_landmarks=3).fit([])

    def test_gram_before_fit(self, kernel):
        with pytest.raises(NotFittedError):
            NystromApproximation(kernel, n_landmarks=3).approximate_gram()

    def test_rejects_zero_landmarks(self, kernel):
        with pytest.raises(ValidationError):
            NystromApproximation(kernel, n_landmarks=0)
