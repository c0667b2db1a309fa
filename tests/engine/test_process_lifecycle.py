"""ProcessEngine pool-lifecycle regression tests.

The historical bug: ``_run`` was a generator, so the pool's
``shutdown(wait=True)`` lived in a ``finally`` that only ran when the
consumer exhausted the iterator — an exception mid-assembly (or an
abandoned iteration) leaked worker processes until GC. These tests pin
the fixed contract with a recording executor double: the pool is shut
down on *every* exit path, ``max_workers`` is respected, and the
in-process degradation announces itself with a RuntimeWarning.

The pool is sized by the same core count as the pair stage's helper
threads, its workers run the pair stage inline, and a fork after a
threaded Gram finds no helper thread alive.
"""

import os
import threading
import warnings

import numpy as np
import pytest

import repro.engine.process as process_module
from repro.api import ExecutionContext
from repro.backend import EXACT, policy
from repro.datasets import load_dataset
from repro.engine.process import ProcessEngine
from repro.kernels import HAQJSKKernelD


class _StubKernel:
    """Minimal kernel protocol: constant blocks, no real math."""

    def block_values(self, states_a, states_b):
        return np.ones((len(states_a), len(states_b)))

    def symmetric_block_values(self, states):
        return np.ones((len(states), len(states)))

    def pair_value(self, state_a, state_b):
        return 1.0


class _FailingKernel(_StubKernel):
    def block_values(self, states_a, states_b):
        raise RuntimeError("boom in block_values")

    def symmetric_block_values(self, states):
        raise RuntimeError("boom in block_values")


class _FakeFuture:
    def __init__(self, fn, args):
        self._fn, self._args = fn, args

    def result(self):
        return self._fn(*self._args)


class _RecordingExecutor:
    """In-process stand-in recording constructor args and shutdown calls."""

    instances: list = []

    def __init__(self, max_workers=None, initializer=None):
        self.max_workers = max_workers
        self.initializer = initializer
        self.shutdown_calls: list = []
        _RecordingExecutor.instances.append(self)

    def submit(self, fn, *args):
        return _FakeFuture(fn, args)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls.append({"wait": wait, "cancel_futures": cancel_futures})


class _UnavailableExecutor:
    def __init__(self, max_workers=None, initializer=None):
        raise OSError("no process pools in this sandbox")


@pytest.fixture(autouse=True)
def _reset_recorder():
    _RecordingExecutor.instances = []
    yield
    _RecordingExecutor.instances = []


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(process_module, "ProcessPoolExecutor", _RecordingExecutor)
    return _RecordingExecutor


def _states(n):
    return list(range(n))


class TestPoolLifecycle:
    def test_pool_shut_down_after_successful_gram(self, recording_pool):
        engine = ProcessEngine(tile_size=2)
        gram = engine.gram(_StubKernel(), _states(5))
        assert np.allclose(gram, 1.0)
        (pool,) = recording_pool.instances
        assert pool.shutdown_calls, "pool was never shut down"
        assert pool.shutdown_calls[-1]["wait"] is True

    def test_pool_shut_down_after_block_values_error(self, recording_pool):
        """The regression: a worker error must still reap the pool."""
        engine = ProcessEngine(tile_size=2)
        with pytest.raises(RuntimeError, match="boom in block_values"):
            engine.gram(_FailingKernel(), _states(5))
        (pool,) = recording_pool.instances
        assert pool.shutdown_calls, "error path leaked the pool"
        assert pool.shutdown_calls[-1]["cancel_futures"] is True

    def test_cross_gram_shuts_down_too(self, recording_pool):
        engine = ProcessEngine(tile_size=2)
        with pytest.raises(RuntimeError):
            engine.cross_gram(_FailingKernel(), _states(4), _states(3))
        (pool,) = recording_pool.instances
        assert pool.shutdown_calls

    def test_no_pool_for_empty_input(self, recording_pool):
        engine = ProcessEngine(tile_size=2)
        assert ProcessEngine(tile_size=2).gram(_StubKernel(), []).shape == (0, 0)
        assert engine.cross_gram(_StubKernel(), [], []).shape == (0, 0)
        assert recording_pool.instances == []


class TestMaxWorkers:
    def test_max_workers_passed_to_pool(self, recording_pool):
        engine = ProcessEngine(tile_size=2, max_workers=2)
        engine.gram(_StubKernel(), _states(8))  # 10 tile jobs at size 2
        (pool,) = recording_pool.instances
        assert pool.max_workers == 2

    def test_workers_capped_by_job_count(self, recording_pool):
        engine = ProcessEngine(tile_size=64, max_workers=16)
        engine.gram(_StubKernel(), _states(4))  # a single diagonal tile
        (pool,) = recording_pool.instances
        assert pool.max_workers == 1

    def test_worker_count_floor(self, recording_pool):
        engine = ProcessEngine(tile_size=2, max_workers=0)  # falsy -> cpu count
        engine.gram(_StubKernel(), _states(4))
        (pool,) = recording_pool.instances
        assert pool.max_workers >= 1


class TestDegradation:
    def test_unavailable_pool_warns_and_degrades(self, monkeypatch):
        monkeypatch.setattr(
            process_module, "ProcessPoolExecutor", _UnavailableExecutor
        )
        engine = ProcessEngine(tile_size=2)
        with pytest.warns(RuntimeWarning, match="in-process"):
            gram = engine.gram(_StubKernel(), _states(5))
        assert np.allclose(gram, 1.0)

    def test_degraded_results_match_real_pool(self, monkeypatch):
        from repro.api import ExecutionContext
        from repro.graphs import generators as gen
        from repro.kernels import QJSKUnaligned

        kernel = QJSKUnaligned()
        graphs = [gen.cycle_graph(5), gen.path_graph(6), gen.star_graph(6)]
        expected = kernel.gram(graphs, ctx=ExecutionContext(engine="serial"))
        monkeypatch.setattr(
            process_module, "ProcessPoolExecutor", _UnavailableExecutor
        )
        with pytest.warns(RuntimeWarning):
            degraded = kernel.gram(
                graphs, ctx=ExecutionContext(engine=ProcessEngine(tile_size=2))
            )
        assert np.allclose(degraded, expected, atol=1e-10, rtol=0.0)

    def test_submission_failure_degrades_and_reaps(self, monkeypatch):
        class _SubmitFails(_RecordingExecutor):
            def submit(self, fn, *args):
                raise OSError("spawn failed at submit")

        monkeypatch.setattr(process_module, "ProcessPoolExecutor", _SubmitFails)
        engine = ProcessEngine(tile_size=2)
        with pytest.warns(RuntimeWarning, match="in-process"):
            gram = engine.gram(_StubKernel(), _states(5))
        assert np.allclose(gram, 1.0)
        (pool,) = _RecordingExecutor.instances
        assert pool.shutdown_calls, "failed submission leaked the pool"


class _ThreadCountingKernel(_StubKernel):
    """Each tile runs one pair-stage call above the grain and fills its
    block with the number of threads that call started."""

    def _threads_started(self) -> int:
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(20, 64, 64))
        stack = raw @ np.swapaxes(raw, -1, -2)
        idx_a, idx_b = np.triu_indices(20)
        started = []
        original = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            original(thread)

        threading.Thread.start = start
        try:
            EXACT.mixed_entropies(stack, stack, idx_a, idx_b, symmetrize=False)
        finally:
            threading.Thread.start = original
        return len(started)

    def block_values(self, states_a, states_b):
        return np.full((len(states_a), len(states_b)), float(self._threads_started()))

    def symmetric_block_values(self, states):
        return np.full((len(states), len(states)), float(self._threads_started()))


class TestPairStageAndPool:
    @pytest.mark.parametrize("cores", [1, 3])
    def test_pool_size_follows_the_core_count(self, recording_pool, monkeypatch, cores):
        monkeypatch.setattr(policy, "available_cores", lambda: cores)
        ProcessEngine(tile_size=2).gram(_StubKernel(), _states(8))
        (pool,) = recording_pool.instances
        assert pool.max_workers == cores
        assert pool.initializer is policy.run_pair_stage_inline

    def test_worker_runs_the_pair_stage_inline(self, monkeypatch):
        monkeypatch.setattr(policy, "available_cores", lambda: 2)
        kernel = _ThreadCountingKernel()
        # In this process the call starts threads; in a pool worker, whose
        # inherited core count still reads 2, it starts none.
        assert kernel._threads_started() >= 1
        pooled = ProcessEngine(tile_size=2, max_workers=2).gram(kernel, _states(4))
        assert pooled.shape == (4, 4) and not pooled.any()

    def test_fork_after_a_threaded_gram(self, monkeypatch):
        """A threaded batched Gram leaves no thread for a later fork: the
        process Gram of the same graphs has the same bytes and nothing
        warns. (Python 3.12+ warns on ``fork()`` in a multi-threaded
        process; it counts every OS thread, so a BLAS library's own pool
        may trigger it too, and only forks with no such thread are held
        to no warning.)"""
        monkeypatch.setattr(policy, "available_cores", lambda: 2)
        graphs = load_dataset("MUTAG", scale=0.25, seed=0).graphs
        started = []
        original_start = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            original_start(thread)

        forks = []
        original_fork = os.fork

        def fork():
            forks.append((threading.active_count(), _os_threads()))
            return original_fork()

        before = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            monkeypatch.setattr(threading.Thread, "start", start)
            kernel = HAQJSKKernelD(n_prototypes=64, n_levels=3, seed=0)
            batched = kernel.gram(graphs, ctx=ExecutionContext(engine="batched"))
            monkeypatch.setattr(threading.Thread, "start", original_start)
            assert any(name.startswith("repro-pair-stage") for name in started)
            assert threading.active_count() == before
            monkeypatch.setattr(os, "fork", fork)
            pooled = kernel.gram(
                graphs, ctx=ExecutionContext(engine=ProcessEngine(max_workers=2))
            )
        assert pooled.tobytes() == batched.tobytes()
        assert len(forks) == 2
        assert all(python == before for python, _ in forks)
        if all(native == python for python, native in forks):
            assert [str(w.message) for w in caught] == []
        else:
            assert all("multi-threaded" in str(w.message) for w in caught)


def _os_threads() -> int:
    """Threads of this process as the kernel counts them (``/proc``), or
    Python's count where that is unreadable."""
    try:
        with open("/proc/self/stat") as stat:
            # Field 20; the fields after the parenthesised name start at 3.
            return int(stat.read().rsplit(")", 1)[1].split()[17])
    except (OSError, IndexError, ValueError):
        return threading.active_count()
