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
"""

from __future__ import annotations

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

#: Memory budget (float64 elements, ~64 MB) for one batched intermediate:
#: every chunked gather / ``eigvalsh`` / broadcast loop in the pair stage
#: and the kernels sizes its stacks by it. Only memory depends on it —
#: each matrix is solved on its own, so moving a chunk boundary changes
#: no value.
DEFAULT_CHUNK_ELEMENTS = 1 << 23


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
        feeds symmetric-by-construction stacks directly. Chunking by
        ``chunk_elements`` bounds every gathered intermediate regardless
        of pair count.
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
                mixed = mix(part_a, part_b)
                if symmetrize:
                    mixed = _symmetrize(mixed)
                out[positions[start:stop]] = eig_entropies(mixed)
        return out


def mix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mixed states ``(a + b) / 2`` (the QJSD assembly primitive)."""
    mixed = a + b
    mixed *= 0.5
    return mixed


#: The instance every kernel calls.
EXACT = ComputePolicy()
