"""The pair stage's helper threads change no byte and outlive no call.

``ComputePolicy.mixed_entropies`` cuts a call into (bucket, slice) tasks
and, above ``PARALLEL_MIN_ELEMENTS``, runs them on one thread per core.
The worker count is forced here through the module's core count (a
private seam, not an option), and every result is compared by bytes
against ``_loop_reference``: the single-threaded loop the runner
replaced, kept verbatim as the oracle. Each matrix is solved on its own
by the same numpy calls, so neither the worker count nor the task cap
may move a value.
"""

import sys
import threading

import numpy as np
import pytest

from repro.api import ExecutionContext, KernelSpec, Session
from repro.backend import EXACT, ComputePolicy, policy
from repro.backend.support import (
    SUPPORT_MIN_DIM,
    eig_entropies,
    gather_offsets,
    support_buckets,
    support_masks,
    take_principal,
)
from repro.datasets import load_dataset
from repro.graphs import generators as gen
from repro.kernels import make
from repro.serve import PredictionService
from repro.utils.linalg import symmetrize as _symmetrize

WORKERS = (1, 2, 3)

#: Small enough that every generated call splits into several tasks.
SMALL_CHUNK = 2048


def _loop_reference(stack_a, stack_b, idx_a, idx_b, symmetrize, chunk_elements):
    """The single-threaded bucket/chunk loop, as it was before the runner."""
    m = int(stack_a.shape[-1])
    out = np.empty(idx_a.size)
    if m >= SUPPORT_MIN_DIM:
        support_a = support_masks(stack_a)
        support_b = support_a if stack_b is stack_a else support_masks(stack_b)
        buckets = support_buckets(support_a[idx_a] | support_b[idx_b])
    else:
        buckets = [(m, np.arange(idx_a.size), None)]
    for size, positions, gather in buckets:
        rows_a = idx_a[positions]
        rows_b = idx_b[positions]
        chunk = max(1, chunk_elements // max(1, size * size))
        for start in range(0, positions.size, chunk):
            stop = min(start + chunk, positions.size)
            if gather is None:
                part_a = stack_a[rows_a[start:stop]]
                part_b = stack_b[rows_b[start:stop]]
            else:
                offsets = gather_offsets(gather[start:stop], m)
                part_a = take_principal(stack_a, rows_a[start:stop], offsets)
                part_b = take_principal(stack_b, rows_b[start:stop], offsets)
            mixed = part_a + part_b
            mixed *= 0.5
            if symmetrize:
                mixed = _symmetrize(mixed)
            out[positions[start:stop]] = eig_entropies(mixed)
    return out


def _density_on(support, m, rng):
    """A trace-one PSD matrix that is exactly zero outside ``support``."""
    matrix = np.zeros((m, m))
    if support.size:
        raw = rng.normal(size=(support.size, support.size))
        block = raw @ raw.T
        matrix[np.ix_(support, support)] = block / np.trace(block)
    return matrix


def _stack(m, sizes, rng):
    return np.stack(
        [_density_on(np.sort(rng.choice(m, size=s, replace=False)), m, rng) for s in sizes]
    )


def _all_pairs(n):
    idx_a, idx_b = np.triu_indices(n)
    return idx_a, idx_b


def _case(name):
    """``(stack_a, stack_b, idx_a, idx_b, symmetrize)`` for one case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "no-pairs":
        stack = _stack(40, [5, 9, 30], rng)
        return stack, stack, np.array([], dtype=int), np.array([], dtype=int), False
    if name == "one-pair":
        stack = _stack(64, [7, 20], rng)
        return stack, stack, np.array([0]), np.array([1]), False
    if name == "all-zero":
        stack = np.zeros((12, 64, 64))
        return (stack, stack, *_all_pairs(12), False)
    if name == "full-support":
        stack = _stack(48, [48] * 6, rng)
        return (stack, stack, *_all_pairs(6), False)
    if name == "small-edge":
        stack = _stack(SUPPORT_MIN_DIM // 2, [3, 8, 16, 11, 1, 16], rng)
        return (stack, stack, *_all_pairs(6), False)
    if name == "buckets-m64":
        stack = _stack(64, [1, 4, 9, 17, 30, 44, 52, 64], rng)
        return (stack, stack, *_all_pairs(8), False)
    if name == "buckets-m256":
        stack = _stack(256, [3, 20, 41, 70, 120, 200], rng)
        return (stack, stack, *_all_pairs(6), False)
    if name == "distinct-stacks":
        stack_a = _stack(64, [2, 12, 25, 40, 61], rng)
        stack_b = _stack(64, [6, 18, 33, 50], rng)
        idx_a, idx_b = (grid.ravel() for grid in np.meshgrid(np.arange(5), np.arange(4)))
        return stack_a, stack_b, idx_a, idx_b, False
    if name == "symmetrize":
        # QJSK's call: round-off asymmetry washed out before the solve.
        stack = _stack(40, [4, 15, 26, 40, 33], rng)
        skew = np.triu(rng.normal(size=stack.shape), 1) * (stack != 0) * 1e-3
        stack = stack + skew
        return (stack, stack, *_all_pairs(5), True)
    raise AssertionError(name)


CASES = (
    "no-pairs",
    "one-pair",
    "all-zero",
    "full-support",
    "small-edge",
    "buckets-m64",
    "buckets-m256",
    "distinct-stacks",
    "symmetrize",
)


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs."""
    names = []
    original = threading.Thread.start

    def start(thread):
        names.append(thread.name)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return names


def _force(monkeypatch, workers, *, grain=None):
    monkeypatch.setattr(policy, "available_cores", lambda: workers)
    if grain is not None:
        monkeypatch.setattr(policy, "PARALLEL_MIN_ELEMENTS", grain)


class TestWorkerCountsBitwise:
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("name", CASES)
    def test_same_bytes_as_the_loop(self, monkeypatch, started, name, workers):
        stack_a, stack_b, idx_a, idx_b, symmetrize = _case(name)
        _force(monkeypatch, workers, grain=0)
        want = _loop_reference(
            stack_a, stack_b, idx_a, idx_b, symmetrize, policy.DEFAULT_CHUNK_ELEMENTS
        )
        for chunk in (policy.DEFAULT_CHUNK_ELEMENTS, SMALL_CHUNK):
            got = EXACT.mixed_entropies(
                stack_a, stack_b, idx_a, idx_b,
                symmetrize=symmetrize, chunk_elements=chunk,
            )
            assert got.tobytes() == want.tobytes(), (name, workers, chunk)
        if workers == 1 or idx_a.size < 2:
            assert started == []
        else:
            assert started
            assert all(name.startswith("repro-pair-stage") for name in started)

    def test_cases_reach_every_route(self):
        # The generated cases cover an empty support, the dense bucket and
        # several compressed buckets at m = 64 and 256.
        routes = {}
        for name in ("all-zero", "full-support", "buckets-m64", "buckets-m256"):
            stack_a, stack_b, idx_a, idx_b, _ = _case(name)
            m = stack_a.shape[-1]
            union = support_masks(stack_a)[idx_a] | support_masks(stack_b)[idx_b]
            routes[name] = sorted(
                (int(size), gather is None) for size, _, gather in support_buckets(union)
            )
            assert all(size <= m for size, _ in routes[name])
        assert routes["all-zero"] == [(8, False)]
        assert routes["full-support"] == [(48, True)]
        assert len(routes["buckets-m64"]) >= 4 and (64, True) in routes["buckets-m64"]
        assert len([s for s, dense in routes["buckets-m256"] if not dense]) >= 5


class TestTasks:
    def test_no_task_exceeds_the_chunk_budget(self, monkeypatch):
        stack_a, stack_b, idx_a, idx_b, _ = _case("buckets-m256")
        _force(monkeypatch, 2, grain=0)
        shapes = []
        real = policy.eig_entropies

        def spy(stack):
            shapes.append(stack.shape)
            return real(stack)

        monkeypatch.setattr(policy, "eig_entropies", spy)
        budget = 40 * 40
        EXACT.mixed_entropies(stack_a, stack_b, idx_a, idx_b, chunk_elements=budget)
        assert shapes
        for count, size, _ in shapes:
            # A matrix larger than the budget is solved alone.
            assert count * size * size <= budget or count == 1, (count, size)
        assert sum(count for count, _, _ in shapes) == idx_a.size

    def test_below_the_grain_runs_inline(self, monkeypatch, started):
        stack_a, stack_b, idx_a, idx_b, _ = _case("buckets-m64")
        _force(monkeypatch, 2)
        assert idx_a.size * 64 * 64 < policy.PARALLEL_MIN_ELEMENTS
        EXACT.mixed_entropies(stack_a, stack_b, idx_a, idx_b, chunk_elements=SMALL_CHUNK)
        assert started == []

    def test_above_the_grain_uses_every_core(self, monkeypatch, started):
        stack = _stack(64, [64] * 20, np.random.default_rng(3))
        idx_a, idx_b = _all_pairs(20)
        assert idx_a.size * 64 * 64 >= policy.PARALLEL_MIN_ELEMENTS
        _force(monkeypatch, 3)
        pools = []
        real = policy.ThreadPoolExecutor

        def pool(workers, **kwargs):
            pools.append(workers)
            return real(workers, **kwargs)

        monkeypatch.setattr(policy, "ThreadPoolExecutor", pool)
        before = threading.active_count()
        EXACT.mixed_entropies(stack, stack, idx_a, idx_b, symmetrize=False)
        assert pools == [3]
        assert started and threading.active_count() == before

    def test_one_core_starts_no_thread(self, monkeypatch, started):
        stack = _stack(64, [64] * 12, np.random.default_rng(3))
        idx_a, idx_b = _all_pairs(12)
        _force(monkeypatch, 1, grain=0)
        EXACT.mixed_entropies(stack, stack, idx_a, idx_b, chunk_elements=SMALL_CHUNK)
        assert started == []

    def test_every_task_runs_once_under_contention(self, monkeypatch):
        # More workers than cores and a 1 µs switch interval: a task lost
        # or taken twice would change the count of solved matrices.
        stack_a, stack_b, idx_a, idx_b, _ = _case("buckets-m64")
        _force(monkeypatch, 8, grain=0)
        want = _loop_reference(
            stack_a, stack_b, idx_a, idx_b, False, policy.DEFAULT_CHUNK_ELEMENTS
        )
        solved = []
        real = policy.eig_entropies

        def count(stack):
            solved.append(len(stack))
            return real(stack)

        monkeypatch.setattr(policy, "eig_entropies", count)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = EXACT.mixed_entropies(
                    stack_a, stack_b, idx_a, idx_b, chunk_elements=256
                )
                assert got.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert sum(solved) == 5 * idx_a.size

    def test_pool_worker_starts_no_thread(self, monkeypatch, started):
        _force(monkeypatch, 3, grain=0)
        assert policy.pair_stage_workers() == 3
        monkeypatch.setattr(policy, "_inline", False)
        policy.run_pair_stage_inline()
        assert policy.pair_stage_workers() == 1
        stack_a, stack_b, idx_a, idx_b, _ = _case("buckets-m64")
        EXACT.mixed_entropies(stack_a, stack_b, idx_a, idx_b, chunk_elements=SMALL_CHUNK)
        assert started == []


class TestFailures:
    def test_task_exception_reaches_the_caller(self, monkeypatch):
        # Every solve fails: the first failure is raised here, the tasks
        # not yet started are cancelled, and no thread is left behind.
        stack = _stack(64, [64] * 16, np.random.default_rng(5))
        idx_a, idx_b = _all_pairs(16)
        _force(monkeypatch, 3, grain=0)
        attempts = []

        def fail(stack):
            attempts.append(len(stack))
            raise RuntimeError("boom in a task")

        monkeypatch.setattr(policy, "eig_entropies", fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="boom in a task"):
            EXACT.mixed_entropies(stack, stack, idx_a, idx_b, chunk_elements=4096)
        assert threading.active_count() == before
        assert 1 <= len(attempts) < idx_a.size


# --------------------------------------------------------------------- #
# Grams: every kernel of the pair stage keeps its bytes
# --------------------------------------------------------------------- #


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
        gen.path_graph(12),
    ]


GRAM_KERNELS = {
    "HAQJSK(A)": {"n_prototypes": 40, "n_levels": 3, "max_layers": 4, "seed": 0},
    "HAQJSK(D)": {"n_prototypes": 64, "n_levels": 3, "max_layers": 4, "seed": 0},
    "QJSK": {},
    "QJSK-AL": {},
}


class TestGramsAcrossWorkerCounts:
    @pytest.mark.parametrize("name", sorted(GRAM_KERNELS))
    def test_gram_bytes(self, monkeypatch, started, graphs, name):
        ctx = ExecutionContext(engine="batched")
        kernel = make(name, **GRAM_KERNELS[name])
        reference = np.asarray(kernel.gram(graphs, ctx=ctx))
        assert started == []  # these small calls stay below the grain
        real = ComputePolicy.mixed_entropies

        def many_tasks(self, *args, **kwargs):
            return real(self, *args, chunk_elements=SMALL_CHUNK, **kwargs)

        monkeypatch.setattr(ComputePolicy, "mixed_entropies", many_tasks)
        for workers in WORKERS:
            _force(monkeypatch, workers, grain=0)
            gram = np.asarray(make(name, **GRAM_KERNELS[name]).gram(graphs, ctx=ctx))
            assert gram.tobytes() == reference.tobytes(), (name, workers)
        # QJSK-AL solves its aligned mixed states outside the pair stage.
        assert bool(started) == (name != "QJSK-AL")


def test_small_predict_runs_on_the_calling_thread(monkeypatch):
    """A 1–4-graph frozen-bundle predict (the serving cross block against
    94 cached states) stays below the grain: no solve leaves the caller."""
    _force(monkeypatch, 2)
    train = load_dataset("MUTAG", scale=0.5, seed=0)
    bundle = Session(ExecutionContext()).train(
        KernelSpec("HAQJSK(D)", n_prototypes=32, seed=0), train, c=10.0
    )
    new = load_dataset("MUTAG", scale=0.25, seed=1).graphs
    threads = []
    real = policy.eig_entropies

    def spy(stack):
        threads.append(threading.current_thread())
        return real(stack)

    monkeypatch.setattr(policy, "eig_entropies", spy)
    service = PredictionService(bundle)
    for count in (1, 2, 4):
        service.predict(new[:count])
    assert threads and set(threads) == {threading.current_thread()}
