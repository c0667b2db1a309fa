"""Tests for experiment configuration and the roster kernel factory
(:func:`repro.kernels.registry.lenient_spec`)."""

import pytest

from repro.errors import KernelError
from repro.experiments.config import (
    SCALED,
    TABLE4_DATASETS,
    TABLE4_KERNELS,
    TABLE5_DATASETS,
    TABLE5_MODELS,
    cv_repeats,
    dataset_scale,
    full_scale,
    haqjsk_levels,
)
from repro.experiments.table4 import INDEFINITE_KERNELS
from repro.kernels.base import GraphKernel
from repro.kernels.registry import lenient_spec


class TestConfig:
    def test_every_table4_dataset_has_scale(self):
        for name in TABLE4_DATASETS:
            cfg = dataset_scale(name)
            assert 0 < cfg.scale <= 1.0
            assert 0 < cfg.size_scale <= 1.0

    def test_table5_subset_of_table4(self):
        assert set(TABLE5_DATASETS) <= set(TABLE4_DATASETS)

    def test_table5_models_include_haqjsk(self):
        assert "HAQJSK(A)" in TABLE5_MODELS and "HAQJSK(D)" in TABLE5_MODELS

    def test_scaled_mode_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        assert not full_scale()
        assert cv_repeats() == 3

    def test_full_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert full_scale()
        assert cv_repeats() == 10
        assert dataset_scale("MUTAG").scale == 1.0
        assert dataset_scale("MUTAG").haqjsk_prototypes == 256

    def test_haqjsk_levels_paper_value(self):
        assert haqjsk_levels() == 5

    def test_scaled_keeps_cv_feasible(self):
        from repro.datasets import PAPER_STATISTICS

        for name, cfg in SCALED.items():
            paper = PAPER_STATISTICS[name]
            n_graphs = max(
                int(round(paper.n_graphs * cfg.scale)), 2 * paper.n_classes
            )
            assert n_graphs >= 2 * paper.n_classes


class TestKernelZoo:
    @pytest.mark.parametrize("name", TABLE4_KERNELS)
    def test_factory_builds_all(self, name):
        kernel = lenient_spec(name, n_prototypes=8).make()
        assert isinstance(kernel, GraphKernel)

    def test_rejects_unknown(self):
        with pytest.raises(KernelError):
            lenient_spec("NOT_A_KERNEL").make()

    def test_indefinite_set_members_exist(self):
        assert INDEFINITE_KERNELS <= set(TABLE4_KERNELS)

    def test_haqjsk_prototype_override(self):
        kernel = lenient_spec("HAQJSK(A)", n_prototypes=17).make()
        assert kernel.aligner.n_prototypes == 17

    @pytest.mark.parametrize("name", ["HAQJSK-L(A)", "HAQJSK-L(D)"])
    def test_attributed_variants_registered(self, name):
        """The Section V future-work kernels are part of the zoo (used by
        the Table I property experiment)."""
        kernel = lenient_spec(name, n_prototypes=8).make()
        assert isinstance(kernel, GraphKernel)
        assert kernel.name == name
        assert "Vertex Labels" in kernel.traits.structure_patterns

    def test_property_roster_builds(self):
        from repro.experiments.properties import PROPERTY_KERNELS

        for name in PROPERTY_KERNELS:
            assert isinstance(lenient_spec(name, n_prototypes=4).make(), GraphKernel)
