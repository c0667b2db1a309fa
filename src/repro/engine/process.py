"""Parallel backend: tiles of the shared schedule fanned out over workers.

The same tile plan as the batched backend, but tile jobs are submitted to
a :class:`concurrent.futures.ProcessPoolExecutor` so the per-tile
``block_values`` calls (batched ``eigvalsh`` stacks, or the pure-Python
fallback loop) run on every available core. The pool has one worker per
core this process may run on (:func:`repro.backend.policy.available_cores`),
and each worker runs its pair stage inline
(:func:`repro.backend.policy.run_pair_stage_inline`): the pool already
fills the cores, so per-call pair-stage threads would only oversubscribe
them. Each task ships only the kernel object and the two state slices it
needs, so the pickling cost grows with the tile, not the collection.

The result is identical to the batched backend tile-for-tile — the same
``block_values`` code runs, merely in another process — which is what the
backend-equivalence tests assert. When a pool cannot be created (no
``fork``/``spawn`` available in a sandbox, interpreter shutting down, …)
the engine degrades to in-process execution rather than failing the Gram
computation, emitting a :class:`RuntimeWarning` so the lost parallelism
is visible. The pool itself is created and shut down deterministically
within each tile stream, on every exit path.
"""

from __future__ import annotations

import itertools
import warnings
from collections import deque

import numpy as np

try:
    from concurrent.futures import ProcessPoolExecutor
except ImportError:  # pragma: no cover - interpreter without _multiprocessing
    # WASM/pyodide-style builds: keep the module importable so the serial
    # and batched backends still work; run_tiles degrades in-process.
    ProcessPoolExecutor = None

from repro.backend import policy
from repro.engine.base import GramEngine, register_engine

#: Smaller default tiles than the batched backend: more tasks to balance.
DEFAULT_TILE_SIZE = 32


def _gram_block(kernel, states_a, states_b, diagonal: bool):
    """Module-level worker (must be picklable by ProcessPoolExecutor)."""
    if diagonal:
        return kernel.symmetric_block_values(states_a)
    return kernel.block_values(states_a, states_b)


@register_engine
class ProcessEngine(GramEngine):
    """Block-tiled Gram evaluation across a process pool."""

    name = "process"

    default_tile = DEFAULT_TILE_SIZE

    def __init__(
        self,
        *,
        tile_size: "int | None" = None,
        max_workers: "int | None" = None,
    ) -> None:
        super().__init__(tile_size=tile_size)
        self.max_workers = max_workers

    def compute_tile(
        self, kernel, states_a: list, states_b: list, diagonal: bool
    ) -> np.ndarray:
        # The in-process mathematics (used by the pool-less degradation
        # path) is exactly what a worker runs remotely.
        return np.asarray(_gram_block(kernel, states_a, states_b, diagonal))

    # ------------------------------------------------------------------ #
    # Scheduling override: fan tiles out to a worker pool
    # ------------------------------------------------------------------ #

    #: Submission window per worker: enough look-ahead to keep every core
    #: busy while bounding in-flight jobs (and their pickled state slices)
    #: to O(workers), not O(N²/tile²).
    _WINDOW_PER_WORKER = 4

    def run_tiles(self, jobs, consume) -> None:
        """Call ``consume(key, block ndarray)`` for every tile job.

        ``jobs`` is consumed lazily with a bounded submission window
        (``workers × 4`` tasks in flight), so neither the schedule nor
        the results are ever all materialised at once — at any moment the
        process holds O(workers) pickled state slices and one finished
        block, which is what lets an out-of-core sink keep peak memory at
        one tile. The pool is created, drained and shut down entirely
        inside this frame. Pushing the assembly in — instead of yielding
        results out of a generator — is what makes the pool lifecycle
        deterministic: a generator's ``finally`` only runs when the
        consumer exhausts or closes it, so an exception raised
        mid-assembly (or an abandoned iteration) used to leave worker
        processes alive until GC. Here every exit path, including a
        ``consume`` or worker exception, reaps the pool first.

        Only pool *setup* (executor creation / first-window submission)
        falls back to in-process execution — that is where restricted
        environments without ``fork``/``spawn`` fail — and the
        degradation is announced with a :class:`RuntimeWarning` so users
        notice they lost parallelism. Once tasks are in flight, worker
        errors (kernel bugs, a broken pool) propagate to the caller
        instead of being masked by a silent full serial recompute.
        """
        jobs = iter(jobs)
        limit = max(1, int(self.max_workers or policy.available_cores()))
        # Buffer up to `limit` jobs before creating the pool, so tiny
        # plans don't spawn more workers than they have tiles.
        head = list(itertools.islice(jobs, limit))
        if not head:
            return
        remaining = itertools.chain(head, jobs)
        if ProcessPoolExecutor is None:
            self._run_in_process(
                remaining,
                consume,
                ImportError("concurrent.futures has no process pools"),
            )
            return
        workers = min(limit, len(head))
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=policy.run_pair_stage_inline
            )
        except (ImportError, OSError, PermissionError, RuntimeError) as exc:
            self._run_in_process(remaining, consume, exc)
            return
        window: deque = deque()
        depth = workers * self._WINDOW_PER_WORKER
        first_batch = list(itertools.islice(remaining, depth))
        try:
            for key, args in first_batch:
                window.append((key, pool.submit(_gram_block, *args)))
        except (OSError, PermissionError, RuntimeError) as exc:
            # First-window submission failed: nothing has been consumed
            # yet, so the whole stream — including the jobs whose futures
            # were cancelled — degrades in-process; consume() still sees
            # each tile exactly once.
            pool.shutdown(wait=False, cancel_futures=True)
            self._run_in_process(
                itertools.chain(first_batch, remaining), consume, exc
            )
            return
        try:
            while window:
                key, future = window.popleft()
                consume(key, np.asarray(future.result(), dtype=float))
                for next_key, next_args in itertools.islice(remaining, 1):
                    window.append(
                        (next_key, pool.submit(_gram_block, *next_args))
                    )
        finally:
            # Runs whether the drain completed or a worker raised: pending
            # tiles are cancelled and the workers reaped before the caller
            # sees either the results or the exception.
            pool.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _run_in_process(jobs, consume, cause: BaseException) -> None:
        """Pool-less fallback, announced so the lost parallelism is visible."""
        warnings.warn(
            f"ProcessEngine could not start a worker pool "
            f"({type(cause).__name__}: {cause}); degrading to in-process "
            f"execution — Gram results are unchanged but no parallel "
            f"speedup applies",
            RuntimeWarning,
            stacklevel=3,
        )
        for key, args in jobs:
            consume(key, np.asarray(_gram_block(*args), dtype=float))
