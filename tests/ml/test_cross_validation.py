"""Tests for the repeated stratified 10-fold CV protocol."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.ml.cross_validation import (
    cross_validate_graph_kernel,
    cross_validate_kernel,
    select_c,
    stratified_k_fold,
)


def separable_gram(per=30, seed=0):
    rng = np.random.default_rng(seed)
    x = np.vstack(
        [rng.normal(-2.0, 0.5, (per, 3)), rng.normal(2.0, 0.5, (per, 3))]
    )
    y = np.asarray([0] * per + [1] * per)
    return x @ x.T, y


class TestStratifiedKFold:
    def test_partition(self):
        y = np.repeat([0, 1], 25)
        splits = stratified_k_fold(y, 5, seed=0)
        all_test = np.concatenate([test for _, test in splits])
        assert sorted(all_test.tolist()) == list(range(50))

    def test_train_test_disjoint(self):
        y = np.repeat([0, 1, 2], 10)
        for train, test in stratified_k_fold(y, 5, seed=1):
            assert set(train) & set(test) == set()

    def test_stratification(self):
        y = np.repeat([0, 1], 20)
        for _, test in stratified_k_fold(y, 4, seed=2):
            labels = y[test]
            assert np.sum(labels == 0) == np.sum(labels == 1)

    def test_deterministic(self):
        y = np.repeat([0, 1], 15)
        a = stratified_k_fold(y, 3, seed=3)
        b = stratified_k_fold(y, 3, seed=3)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValidationError):
            stratified_k_fold(np.asarray([0, 1]), 5)

    def test_small_class_fewer_folds(self):
        y = np.asarray([0] * 20 + [1] * 2)
        splits = stratified_k_fold(y, 5, seed=4)
        assert len(splits) == 5


class TestSelectC:
    def test_returns_grid_value(self):
        gram, y = separable_gram()
        train = np.arange(y.size)
        c = select_c(gram, y, train, c_grid=(0.1, 1.0, 10.0), seed=0)
        assert c in (0.1, 1.0, 10.0)

    def test_tiny_training_set_falls_back(self):
        gram, y = separable_gram(per=3)
        c = select_c(gram, y, np.arange(4), c_grid=(0.1, 1.0, 10.0), seed=0)
        assert c == 1.0  # grid midpoint fallback


class TestCrossValidate:
    def test_high_accuracy_on_separable(self):
        gram, y = separable_gram(seed=5)
        result = cross_validate_kernel(gram, y, n_folds=5, n_repeats=2, seed=0)
        assert result.mean_accuracy >= 0.95

    def test_chance_level_on_random_labels(self):
        rng = np.random.default_rng(6)
        gram, _ = separable_gram(seed=6)
        y = rng.integers(0, 2, size=gram.shape[0])
        result = cross_validate_kernel(gram, y, n_folds=5, n_repeats=2, seed=0)
        assert result.mean_accuracy < 0.75

    def test_result_fields(self):
        gram, y = separable_gram(seed=7)
        result = cross_validate_kernel(gram, y, n_folds=5, n_repeats=3, seed=0)
        assert len(result.per_repeat) == 3
        assert result.standard_error >= 0.0
        assert "±" in str(result)

    def test_deterministic(self):
        gram, y = separable_gram(seed=8)
        a = cross_validate_kernel(gram, y, n_folds=5, n_repeats=2, seed=4)
        b = cross_validate_kernel(gram, y, n_folds=5, n_repeats=2, seed=4)
        assert a.mean_accuracy == b.mean_accuracy

    def test_select_per_fold_mode(self):
        gram, y = separable_gram(seed=9)
        result = cross_validate_kernel(
            gram, y, n_folds=4, n_repeats=1, select_per_fold=True, seed=0
        )
        assert result.mean_accuracy >= 0.9

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ValidationError):
            cross_validate_kernel(np.eye(4), np.asarray([0, 1]))


class TestGraphKernelEntryPoint:
    """The end-to-end graphs -> Gram -> CV wrapper (engine-aware)."""

    def _collection(self):
        from repro.graphs import generators as gen

        graphs = [gen.cycle_graph(5 + i % 3) for i in range(6)] + [
            gen.star_graph(5 + i % 3) for i in range(6)
        ]
        labels = np.asarray([0] * 6 + [1] * 6)
        return graphs, labels

    def test_runs_end_to_end(self):
        from repro.kernels import WeisfeilerLehmanKernel

        graphs, labels = self._collection()
        result = cross_validate_graph_kernel(
            WeisfeilerLehmanKernel(2), graphs, labels,
            n_folds=3, n_repeats=2, seed=0,
        )
        assert 0.0 <= result.mean_accuracy <= 1.0

    def test_engine_choice_does_not_change_result(self):
        from repro.api import ExecutionContext
        from repro.kernels import QJSKUnaligned

        graphs, labels = self._collection()
        kwargs = dict(
            ensure_psd=True, n_folds=3, n_repeats=2, seed=0
        )
        serial = cross_validate_graph_kernel(
            QJSKUnaligned(), graphs, labels,
            ctx=ExecutionContext(engine="serial"), **kwargs
        )
        batched = cross_validate_graph_kernel(
            QJSKUnaligned(), graphs, labels,
            ctx=ExecutionContext(engine="batched"), **kwargs
        )
        assert serial.mean_accuracy == pytest.approx(batched.mean_accuracy)
