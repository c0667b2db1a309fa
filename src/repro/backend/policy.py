"""The pair stage's one entropy path: exact float64 mixed-state solves.

HAQJSK, QJSK and QJSK-AL evaluate ``H((ρ + σ) / 2)`` for every pair of a
tile (paper Eq. 6/7). They all do it through
:meth:`ComputePolicy.mixed_entropies`, called once per level per tile on
the module-level instance :data:`EXACT`. The class has no settings: it
stays a named method so that the pair stage has one stable entry point
(perfbench's ``backend.mixed`` hook wraps it by name).

Mixed states whose exact support is far smaller than their edge (see
:mod:`repro.backend.support`) are solved on that support and agree with
the dense solve to ~1e-14; all other mixed states run the dense float64
``eigvalsh`` bit for bit. A pair's solve depends only on its own two
matrices, so batched, process, tiled and distributed Grams agree with
each other bitwise.

A call large enough to pay for it splits its solves across one thread
per core (:func:`available_cores`): numpy's stacked ``eigvalsh``,
``take`` and ufunc loops release the GIL. Every thread is joined before
the call returns, and each matrix is still solved on its own by the same
numpy calls, so the worker count changes no value.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backend.support import (
    SUPPORT_MIN_DIM,
    eig_entropies,
    gather_offsets,
    support_buckets,
    support_masks,
    take_principal,
)
from repro.utils.linalg import symmetrize as _symmetrize

#: Memory budget (float64 elements, 2 MB) for one task's gathered stack:
#: every chunked gather / ``eigvalsh`` / broadcast loop in the pair stage
#: and the kernels sizes its stacks by it, and each thread of a
#: :meth:`~ComputePolicy.mixed_entropies` call holds one task's stacks at
#: a time. Only memory and speed depend on it — each matrix is solved on
#: its own, so moving a chunk boundary changes no value. Replaying one
#: ``cell-mutag-p256`` Gram's pair stage (2-core x86-64 container, one
#: OpenBLAS thread) took 787 ms on one thread and 478–489 ms on two at
#: ``1 << 18``, against 925 and 561 ms at the earlier ``1 << 23``.
DEFAULT_CHUNK_ELEMENTS = 1 << 18

#: A :meth:`~ComputePolicy.mixed_entropies` call that gathers fewer
#: float64 elements than this runs on the calling thread. On the same
#: host two threads lost below ``1 << 16`` elements (0.67–0.82x) and
#: gained 1.5–1.7x from ``1 << 18`` up at edges 24 and 48; a 1–4-graph
#: ``/predict`` cross block (2^15.9 to 2^17.8 elements at m = 32 against
#: 94 cached states) gained nothing, so it stays inline, as does an
#: m = 8 level of fewer than 4 096 pairs.
PARALLEL_MIN_ELEMENTS = 1 << 18

#: Set in process-pool workers by :func:`run_pair_stage_inline`.
_inline = False


def available_cores() -> int:
    """The cores this process may run on: its CPU affinity mask where the
    platform has one (``taskset`` narrows it), else the machine's count.
    The pair stage's threads and the ``process`` engine's pool are both
    sized by it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def run_pair_stage_inline() -> None:
    """Process-pool initializer: this worker's pair stage starts no
    thread, because its pool already runs one process per core."""
    global _inline
    _inline = True


def pair_stage_workers() -> int:
    """Threads a large :meth:`~ComputePolicy.mixed_entropies` call runs on
    in this process: one per core, or 1 in a process-pool worker."""
    return 1 if _inline else available_cores()


class ComputePolicy:
    """The exact float64 eigensolve of mixed states (use :data:`EXACT`)."""

    def mixed_entropies(
        self,
        stack_a: np.ndarray,
        stack_b: np.ndarray,
        idx_a: np.ndarray,
        idx_b: np.ndarray,
        *,
        symmetrize: bool = True,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> np.ndarray:
        """Entropies of the mixed states ``(a[idx_a] + b[idx_b]) / 2``.

        The tile workhorse. Each pair is solved on the union of its two
        exact supports, rounded up to a bucket (see
        :mod:`repro.backend.support`): its principal submatrices are
        gathered from the stacks and mixed. Pairs in the dense bucket
        take the full-edge route. ``symmetrize`` mirrors the two call
        sites: QJSK symmetrises like :func:`von_neumann_entropies`, HAQJSK
        feeds symmetric-by-construction stacks directly. The work is cut
        into (bucket, slice) tasks of at most ``chunk_elements`` gathered
        elements each, which bounds every intermediate regardless of pair
        count; a call of at least :data:`PARALLEL_MIN_ELEMENTS` runs its
        tasks on :func:`pair_stage_workers` threads.
        """
        stack_a = np.asarray(stack_a, dtype=float)
        stack_b = stack_a if stack_b is stack_a else np.asarray(stack_b, dtype=float)
        m = int(stack_a.shape[-1])
        idx_a = np.asarray(idx_a)
        idx_b = np.asarray(idx_b)
        out = np.empty(idx_a.size)
        if m >= SUPPORT_MIN_DIM:
            support_a = support_masks(stack_a)
            support_b = support_a if stack_b is stack_a else support_masks(stack_b)
            buckets = list(support_buckets(support_a[idx_a] | support_b[idx_b]))
        else:
            buckets = [(m, np.arange(idx_a.size), None)]

        def solve(positions: np.ndarray, gather: "np.ndarray | None") -> None:
            rows_a = idx_a[positions]
            rows_b = idx_b[positions]
            if gather is None:
                part_a = stack_a[rows_a]
                part_b = stack_b[rows_b]
            else:
                offsets = gather_offsets(gather, m)
                part_a = take_principal(stack_a, rows_a, offsets)
                part_b = take_principal(stack_b, rows_b, offsets)
            mixed = mix(part_a, part_b)
            if symmetrize:
                mixed = _symmetrize(mixed)
            out[positions] = eig_entropies(mixed)

        gathered = sum(size * size * positions.size for size, positions, _ in buckets)
        workers = pair_stage_workers() if gathered >= PARALLEL_MIN_ELEMENTS else 1
        if workers > 1:
            # At least two tasks per thread, so the threads finish
            # together, and the largest solves first, so they finish on
            # small ones.
            chunk_elements = min(chunk_elements, -(-gathered // (2 * workers)))
            buckets.sort(key=lambda bucket: -bucket[0])
        tasks = []
        for size, positions, gather in buckets:
            chunk = max(1, chunk_elements // max(1, size * size))
            for start in range(0, positions.size, chunk):
                stop = min(start + chunk, positions.size)
                tasks.append(
                    (positions[start:stop], None if gather is None else gather[start:stop])
                )
        _run_tasks(solve, tasks, workers)
        return out


def _run_tasks(solve, tasks: list, workers: int) -> None:
    """``solve(*task)`` for every task, in order, on up to ``workers``
    threads of a pool that lives only for this call.

    Leaving the ``with`` block joins every pool thread, so none outlives
    the call (a later ``fork`` finds none of them). If tasks raise, the
    exception of the first failing one in submission order is raised
    here, after the tasks not yet started are cancelled and the running
    ones have finished.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        for task in tasks:
            solve(*task)
        return
    with ThreadPoolExecutor(workers, thread_name_prefix="repro-pair-stage") as pool:
        futures = [pool.submit(solve, *task) for task in tasks]
        try:
            for future in futures:
                future.result()
        except BaseException:
            for future in futures:
                future.cancel()
            raise


def mix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mixed states ``(a + b) / 2`` (the QJSD assembly primitive)."""
    mixed = a + b
    mixed *= 0.5
    return mixed


#: The instance every kernel calls.
EXACT = ComputePolicy()
