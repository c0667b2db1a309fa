"""Tests for the QJSK baselines (unaligned + Umeyama-aligned)."""

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.datasets import load_dataset
from repro.graphs import generators as gen
from repro.kernels.qjsk import QJSKAligned, QJSKUnaligned


@pytest.fixture(scope="module")
def graphs():
    return [
        gen.star_graph(6),
        gen.path_graph(8),
        gen.barabasi_albert(7, 2, seed=0),
        gen.erdos_renyi(9, 0.35, seed=1).largest_component(),
    ]


class TestQJSKUnaligned:
    def test_self_similarity_one(self, graphs):
        kernel = QJSKUnaligned()
        gram = kernel.gram(graphs)
        assert np.allclose(np.diag(gram), 1.0)

    def test_values_in_unit_interval(self, graphs):
        gram = QJSKUnaligned().gram(graphs)
        assert np.all(gram > 0.0) and np.all(gram <= 1.0 + 1e-12)

    def test_mu_monotonicity(self, graphs):
        """Larger decay factor shrinks off-diagonal similarities."""
        soft = QJSKUnaligned(mu=0.5).gram(graphs)
        hard = QJSKUnaligned(mu=4.0).gram(graphs)
        off = ~np.eye(len(graphs), dtype=bool)
        assert np.all(hard[off] <= soft[off] + 1e-12)

    def test_not_permutation_invariant(self):
        """The paper's core criticism: padding depends on vertex order."""
        small = gen.star_graph(4)
        large = gen.barabasi_albert(9, 2, seed=3)
        kernel = QJSKUnaligned()
        baseline = kernel(small, large)
        permuted = kernel(small, large.permuted(
            np.random.default_rng(0).permutation(9)
        ))
        assert abs(baseline - permuted) > 1e-8

    def test_handles_equal_sizes(self):
        a = gen.cycle_graph(5)
        b = gen.star_graph(5)
        value = QJSKUnaligned()(a, b)
        assert 0.0 < value <= 1.0

    def test_rejects_nonpositive_mu(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            QJSKUnaligned(mu=0.0)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_batched_bytes_independent_of_tile(self, normalize):
        """Each mixed state is solved at its own pair's edge and each
        graph's entropy at its own size, so a pair's bytes never depend on
        which graphs share its tile: every tiling, and one tile holding
        the whole collection, gives the same Gram."""
        collection = list(load_dataset("MUTAG", scale=0.15, seed=0).graphs)
        kernel = QJSKUnaligned()
        grams = {
            tile: kernel.gram(
                collection,
                normalize=normalize,
                ctx=ExecutionContext(engine="batched", tile_size=tile),
            )
            for tile in (1, 3, 8, len(collection))
        }
        whole = grams.pop(len(collection)).tobytes()
        for tile, gram in grams.items():
            assert gram.tobytes() == whole, tile


class TestQJSKAligned:
    def test_alignment_never_hurts(self, graphs):
        """Eq. 11 maximises over permutations, so the aligned kernel value
        should dominate the unaligned one (up to Umeyama's heuristic)."""
        unaligned = QJSKUnaligned().gram(graphs)
        aligned = QJSKAligned().gram(graphs)
        # Umeyama is a heuristic for the max, so allow small slack.
        assert np.all(aligned >= unaligned - 0.05)

    def test_more_robust_to_permutation(self):
        small = gen.star_graph(4)
        large = gen.barabasi_albert(9, 2, seed=3)
        perm = np.random.default_rng(0).permutation(9)
        unaligned_dev = abs(
            QJSKUnaligned()(small, large)
            - QJSKUnaligned()(small, large.permuted(perm))
        )
        aligned_dev = abs(
            QJSKAligned()(small, large)
            - QJSKAligned()(small, large.permuted(perm))
        )
        assert aligned_dev <= unaligned_dev + 1e-9

    def test_self_similarity_one(self, graphs):
        gram = QJSKAligned().gram(graphs)
        assert np.allclose(np.diag(gram), 1.0, atol=1e-9)

    def test_traits_indefinite(self):
        assert not QJSKUnaligned().traits.positive_definite
        assert not QJSKAligned().traits.positive_definite
