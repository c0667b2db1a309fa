"""Support-compressed mixed-state entropies against the dense oracle.

``ComputePolicy.mixed_entropies`` solves each pair on the union of its two
exact supports (``repro.backend.support``). The stacks here carry random
exact-zero supports — disjoint, nested, identical, empty, full, single
index — at edges on both sides of ``SUPPORT_MIN_DIM``, so the compressed
buckets, the padding and the dense fallback all run. The result must
match the dense solve to 1e-12. The Gram-level tests use HAQJSK(D) with 64
prototypes on small graphs (level-1 support far below m) against the
serial ``pair_value`` oracle and across engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionContext
from repro.backend import EXACT, ComputePolicy
from repro.backend.support import (
    SUPPORT_BUCKET_WIDTH,
    SUPPORT_DENSE_FRACTION,
    SUPPORT_MIN_DIM,
    support_buckets,
    support_entropies,
    support_masks,
)
from repro.graphs import generators as gen
from repro.kernels import HAQJSKKernelD, QJSKUnaligned
from repro.utils.linalg import safe_xlogx

FLOAT64_ATOL = 1e-12

#: Edges below, at and above SUPPORT_MIN_DIM (m < 8 included).
EDGES = (3, 5, 7, 16, 32, 40, 64)

RELATIONS = ("random", "identical", "nested", "disjoint", "empty", "full", "single")


def _dense_entropies(mixed, symmetrize):
    """The historical dense arithmetic: symmetrise, full-edge eigvalsh."""
    if symmetrize:
        mixed = (mixed + np.swapaxes(mixed, -1, -2)) / 2.0
    values = np.clip(np.linalg.eigvalsh(mixed), 0.0, None)
    return -safe_xlogx(values).sum(axis=-1)


def _dense_mixed(stack_a, stack_b, idx_a, idx_b):
    mixed = stack_a[idx_a] + stack_b[idx_b]
    mixed *= 0.5
    return mixed


def _support(relation, previous, m, rng):
    if relation == "empty":
        return np.zeros(0, dtype=int)
    if relation == "full":
        return np.arange(m)
    if relation == "single":
        return rng.choice(m, size=1)
    if relation == "identical" and previous is not None:
        return previous
    if relation == "nested" and previous is not None and previous.size:
        return np.sort(rng.choice(previous, size=rng.integers(1, previous.size + 1),
                                  replace=False))
    if relation == "disjoint" and previous is not None:
        rest = np.setdiff1d(np.arange(m), previous)
        if rest.size:
            return np.sort(rng.choice(rest, size=rng.integers(1, rest.size + 1),
                                      replace=False))
    # Mostly well below the edge, like aligned densities.
    size = int(rng.integers(1, max(2, m // 3) + 1))
    return np.sort(rng.choice(m, size=size, replace=False))


def _density_on(support, m, rng):
    """A trace-one PSD matrix that is exactly zero outside ``support``."""
    matrix = np.zeros((m, m))
    k = support.size
    if k:
        raw = rng.normal(size=(k, k))
        block = raw @ raw.T
        matrix[np.ix_(support, support)] = block / np.trace(block)
    return matrix


@st.composite
def support_stacks(draw, *, psd_only=False):
    """``(stack, pairs, symmetrize)`` with random exact-zero supports.

    Unless ``psd_only``, some matrices are made non-symmetric (solved with
    ``symmetrize=True``) and some get a zero row whose column is nonzero.
    """
    m = draw(st.sampled_from(EDGES))
    relations = draw(st.lists(st.sampled_from(RELATIONS), min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    supports = []
    for relation in relations:
        supports.append(_support(relation, supports[-1] if supports else None, m, rng))
    stack = np.stack([_density_on(s, m, rng) for s in supports])
    symmetrize = False
    if not psd_only and draw(st.booleans()):
        symmetrize = True
        skew = np.triu(rng.normal(size=stack.shape), 1) * (stack != 0)
        stack = stack + skew - np.swapaxes(skew, -1, -2)
        # A zero row whose column is nonzero: only the column marks the
        # index as part of the support.
        target = int(rng.integers(len(stack)))
        outside = np.flatnonzero(~support_masks(stack[target]))
        if outside.size and supports[target].size:
            stack[target][supports[target], outside[0]] = 0.05
    n = len(stack)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    idx_a = np.array([i for i, _ in pairs])
    idx_b = np.array([j for _, j in pairs])
    return stack, idx_a, idx_b, symmetrize


class TestCompressedMatchesDense:
    @settings(max_examples=60, deadline=None)
    @given(support_stacks())
    def test_float64_within_1e12(self, case):
        stack, idx_a, idx_b, symmetrize = case
        got = EXACT.mixed_entropies(
            stack, stack, idx_a, idx_b, symmetrize=symmetrize
        )
        want = _dense_entropies(_dense_mixed(stack, stack, idx_a, idx_b), symmetrize)
        np.testing.assert_allclose(got, want, rtol=0, atol=FLOAT64_ATOL)

    @settings(max_examples=25, deadline=None)
    @given(support_stacks(psd_only=True), st.integers(0, 2**32 - 1))
    def test_distinct_stacks(self, case, seed):
        # Rectangular tiles: a and b are different stacks, so unions mix
        # supports from both sides.
        stack_a, idx_a, idx_b, _ = case
        rng = np.random.default_rng(seed)
        stack_b = stack_a[rng.permutation(len(stack_a))]
        got = EXACT.mixed_entropies(
            stack_a, stack_b, idx_a, idx_b, symmetrize=False
        )
        want = _dense_entropies(_dense_mixed(stack_a, stack_b, idx_a, idx_b), False)
        np.testing.assert_allclose(got, want, rtol=0, atol=FLOAT64_ATOL)

    @settings(max_examples=25, deadline=None)
    @given(support_stacks(), st.integers(0, 2**32 - 1))
    def test_pair_values_independent_of_batch(self, case, seed):
        # A pair's bucket depends only on its own two matrices: any split
        # or order of the pair list gives the same bytes per pair.
        stack, idx_a, idx_b, symmetrize = case
        whole = EXACT.mixed_entropies(
            stack, stack, idx_a, idx_b, symmetrize=symmetrize
        )
        order = np.random.default_rng(seed).permutation(idx_a.size)
        cut = idx_a.size // 2
        parts = np.empty_like(whole)
        for part in (order[:cut], order[cut:]):
            parts[part] = EXACT.mixed_entropies(
                stack, stack, idx_a[part], idx_b[part], symmetrize=symmetrize
            )
        assert parts.tobytes() == whole.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(support_stacks(psd_only=True))
    def test_per_graph_entropies(self, case):
        stack = case[0]
        np.testing.assert_allclose(
            support_entropies(stack), _dense_entropies(stack, False),
            rtol=0, atol=FLOAT64_ATOL,
        )


class TestBuckets:
    def _buckets(self, supports):
        return {
            size: (positions, gather)
            for size, positions, gather in support_buckets(np.asarray(supports))
        }

    def test_sizes_round_up_and_pad_outside_the_support(self):
        m = 64
        supports = np.zeros((3, m), dtype=bool)
        supports[0, [3, 9, 40]] = True  # 3 -> 8
        supports[1, :9] = True  # 9 -> 16
        supports[2, 50:] = True  # 14 -> 16
        buckets = self._buckets(supports)
        assert sorted(buckets) == [8, 16]
        positions, gather = buckets[8]
        assert positions.tolist() == [0]
        # The support first (ascending), then the lowest indices outside.
        assert gather[0].tolist() == [3, 9, 40, 0, 1, 2, 4, 5]
        positions, gather = buckets[16]
        assert positions.tolist() == [1, 2]
        assert gather[1].tolist()[:14] == list(range(50, 64))
        assert all(index not in range(50, 64) for index in gather[1, 14:])

    def test_wide_supports_stay_dense(self):
        m = 64
        limit = int(SUPPORT_DENSE_FRACTION * m)
        supports = np.zeros((2, m), dtype=bool)
        supports[0, :limit] = True
        supports[1, : limit + 1] = True
        buckets = self._buckets(supports)
        assert buckets[limit][0].tolist() == [0]
        positions, gather = buckets[m]
        assert positions.tolist() == [1] and gather is None

    def test_empty_support_takes_the_smallest_bucket(self):
        buckets = self._buckets(np.zeros((1, 64), dtype=bool))
        assert list(buckets) == [SUPPORT_BUCKET_WIDTH]

    def test_small_edges_are_never_compressed(self, monkeypatch):
        stack = np.zeros((2, SUPPORT_MIN_DIM - 1, SUPPORT_MIN_DIM - 1))
        stack[:, 0, 0] = 1.0
        calls = []
        original = np.linalg.eigvalsh

        def spy(stack):
            calls.append(stack.shape[-1])
            return original(stack)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        EXACT.mixed_entropies(stack, stack, np.array([0]), np.array([1]))
        assert calls == [SUPPORT_MIN_DIM - 1]

    def test_full_support_is_bitwise_dense(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(6, 48, 48))
        stack = raw @ np.swapaxes(raw, -1, -2)
        idx_a, idx_b = np.triu_indices(6)
        np.testing.assert_array_equal(
            EXACT.mixed_entropies(stack, stack, idx_a, idx_b),
            _dense_entropies(_dense_mixed(stack, stack, idx_a, idx_b), True),
        )


# --------------------------------------------------------------------- #
# Gram level: HAQJSK(D) with far more prototypes than vertices
# --------------------------------------------------------------------- #

PROTOTYPES = 64


@pytest.fixture(scope="module")
def graphs():
    return [
        gen.cycle_graph(8),
        gen.path_graph(9),
        gen.star_graph(10),
        gen.barabasi_albert(12, 2, seed=0),
        gen.erdos_renyi(11, 0.4, seed=1).largest_component(),
        gen.watts_strogatz(10, 4, 0.3, seed=2),
        gen.random_tree(10, seed=3),
        gen.barabasi_albert(11, 1, seed=4),
        gen.cycle_graph(12),
    ]


def _kernel():
    return HAQJSKKernelD(n_prototypes=PROTOTYPES, n_levels=3, max_layers=4, seed=0)


def _serial_oracle(kernel, graphs):
    states = kernel.prepare(graphs)
    n = len(states)
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = kernel.pair_value(states[i], states[j])
    return gram


@pytest.fixture
def solve_log(monkeypatch):
    """``(m, S)`` for every eigensolve inside ``mixed_entropies``: the
    level edge of the call and the edge actually solved."""
    log = []
    edge = []
    mixed = ComputePolicy.mixed_entropies
    eigvalsh = np.linalg.eigvalsh

    def mixed_spy(self, stack_a, *args, **kwargs):
        edge.append(int(stack_a.shape[-1]))
        try:
            return mixed(self, stack_a, *args, **kwargs)
        finally:
            edge.pop()

    def eig_spy(stack):
        if edge:
            log.append((edge[-1], int(stack.shape[-1])))
        return eigvalsh(stack)

    monkeypatch.setattr(ComputePolicy, "mixed_entropies", mixed_spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", eig_spy)
    return log


class TestCompressedGram:
    def test_batched_matches_serial_oracle(self, graphs, solve_log):
        kernel = _kernel()
        batched = kernel.gram(graphs, ctx=ExecutionContext(engine="batched"))
        assert any(solved < m for m, solved in solve_log), solve_log
        np.testing.assert_allclose(
            batched, _serial_oracle(kernel, graphs), rtol=0, atol=1e-10
        )

    def test_engines_and_tilings_bitwise_equal(self, graphs):
        kernel = _kernel()
        batched = kernel.gram(graphs, ctx=ExecutionContext(engine="batched"))
        tiled = kernel.gram(
            graphs, ctx=ExecutionContext(engine="batched", tile_size=4)
        )
        process = kernel.gram(graphs, ctx=ExecutionContext(engine="process"))
        assert tiled.tobytes() == batched.tobytes()
        assert process.tobytes() == batched.tobytes()

    def test_qjsk_padding_compressed(self, graphs, solve_log):
        # One 36-vertex graph shares the tile, yet no pair is padded past
        # its own edge max(n_a, n_b): every mixed solve runs at that edge,
        # so no tile padding is left to strip.
        collection = graphs[:5] + [gen.path_graph(36)]
        kernel = QJSKUnaligned()
        batched = kernel.gram(collection, ctx=ExecutionContext(engine="batched"))
        serial = kernel.gram(collection, ctx=ExecutionContext(engine="serial"))
        sizes = [g.n_vertices for g in collection]
        assert {m for m, _ in solve_log} == {max(a, b) for a in sizes for b in sizes}
        assert all(solved == m for m, solved in solve_log), solve_log
        np.testing.assert_allclose(batched, serial, rtol=0, atol=1e-10)
