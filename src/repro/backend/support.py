"""Exact support compression for stacked von Neumann entropies.

An aligned HAQJSK(D) density matrix has one row and column per
prototype, but the correspondence matrices are one-hot (paper Eq. 15/17):
a prototype no vertex maps to leaves an exactly-zero row *and* column.
(QJSK pads each pair only to its own edge, the larger graph's order, so
its mixed states carry no tile padding to strip and stay dense.) A
matrix whose rows and columns outside an index set ``U`` are exactly
zero is block diagonal ``[[X_UU, 0], [0, 0]]`` after a
permutation, so its spectrum is ``eig(X_UU)`` plus exact zeros — and
``0 log 0 = 0`` — so the entropy of the ``|U| x |U|`` principal submatrix
*is* the entropy of the matrix. Mixing preserves this with ``U`` the union
of the two supports: outside it both summands are exactly zero.

:func:`support_buckets` turns per-matrix (or per-pair union) supports
into solve sizes. Sizes round up to a multiple of
:data:`SUPPORT_BUCKET_WIDTH`; the rounding pads with indices outside the
support, whose rows and columns are zero and so contribute exact zero
eigenvalues. A size depends only on its own support, never on which other
matrices share the stack, so every engine, tile split and worker solves
the same submatrix for the same pair and stays bitwise equal to the
others. Sizes too close to the full edge, and stacks whose edge is below
:data:`SUPPORT_MIN_DIM`, keep the dense full-edge solve — for them the
result is the dense arithmetic bit for bit.

Supports are *exact*: an index belongs to one when its row or its column
holds any entry ``!= 0``. No tolerance is applied, so a noise-level entry
(the CTQW densities of HAQJSK(A)) keeps its index in the support and the
solve stays dense.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.linalg import safe_xlogx

# The measurements below time all pairs of one level of the benchmark's
# prepared states, dense against compressed, on a 2-core x86-64 container
# with one OpenBLAS thread (best of 3-5 repeats).

#: Solve sizes are multiples of this many indices, so one stack spans a
#: few buckets rather than one per distinct support size. On the
#: ``cell-mutag-p256`` level-1 union supports (mean 47.7 of 256) a width
#: of 4, 8 and 16 measured 18.8x, 13.6x and 13.4x over the dense solve —
#: inside the host's run-to-run spread, so the middle value.
SUPPORT_BUCKET_WIDTH = 8

#: A bucket wider than this fraction of the edge runs the dense
#: full-edge solve: the gather costs about as much as the smaller solve
#: saves. ``cell-mutag-p256`` level 3 (union 50.4 of m = 64) ran 1.0x at
#: 0.75 and level 2 (75.9 of 128) 1.9x; lowering the fraction to 0.6
#: dropped level 2 to 1.2x, raising it to 1.0 gained nothing measurable.
SUPPORT_DENSE_FRACTION = 0.75

#: Stacks with a smaller edge are solved dense without computing a
#: support. At m = 16 the support pass cost more than the few 8 x 8
#: buckets saved (0.95x and 0.99x on the 32-prototype MUTAG and PPIs level
#: 2 stacks); at m = 32 the MUTAG level-1 stack (union 19.8) gained 1.3x.
SUPPORT_MIN_DIM = 32


def support_masks(stack: np.ndarray) -> np.ndarray:
    """``(..., m)`` exact supports of a host ``(..., m, m)`` stack.

    Index ``i`` is in a matrix's support when row ``i`` or column ``i``
    has an entry ``!= 0`` — a superset of the support of the matrix's
    symmetric part, so the same mask serves symmetrised solves.
    """
    nonzero = stack != 0
    return nonzero.any(axis=-1) | nonzero.any(axis=-2)


def support_buckets(
    supports: np.ndarray,
) -> "Iterator[tuple[int, np.ndarray, np.ndarray | None]]":
    """Group ``(n, m)`` supports into solve buckets.

    Yields ``(size, positions, gather)``: the rows of ``supports`` solved
    at edge ``size`` and, for compressed buckets, the ``(len, size)``
    indices to gather — each row's support in ascending order, then the
    lowest indices outside it as padding. ``gather`` is ``None`` for the
    dense bucket (``size == m``).
    """
    m = int(supports.shape[-1])
    counts = supports.sum(axis=-1)
    width = SUPPORT_BUCKET_WIDTH
    # Round up to a multiple of the width (an empty support still gets
    # the smallest bucket), never past the edge.
    sizes = np.minimum(-(-np.maximum(counts, 1) // width) * width, m)
    sizes[sizes > SUPPORT_DENSE_FRACTION * m] = m
    for size in np.unique(sizes):
        positions = np.flatnonzero(sizes == size)
        if size == m:
            yield m, positions, None
            continue
        # A stable sort of the complement puts the support first, then
        # the padding, both ascending.
        order = np.argsort(~supports[positions], axis=-1, kind="stable")
        yield int(size), positions, order[:, :size]


def gather_offsets(gather: np.ndarray, m: int) -> np.ndarray:
    """Flat in-matrix offsets ``(len, S, S)`` of the principal submatrices
    a ``(len, S)`` gather selects from ``(m, m)`` matrices."""
    return gather[:, :, None] * m + gather[:, None, :]


def take_principal(
    stack: np.ndarray, rows: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """``stack[rows[p]][g, g]`` for every ``p`` as one flat ``take``.

    ``offsets`` come from :func:`gather_offsets`. One ``take`` over the
    raveled stack runs about 1.4x faster than three-array fancy indexing.
    """
    m = int(stack.shape[-1])
    base = np.asarray(rows, dtype=np.intp)[:, None, None] * (m * m)
    return np.ascontiguousarray(stack).reshape(-1).take(base + offsets)


def eig_entropies(stack: np.ndarray) -> np.ndarray:
    """Float64 von Neumann entropies ``-sum safe_xlogx(eigvalsh)`` of
    a symmetric ``(..., m, m)`` stack — the one eigensolver entropy path
    (:meth:`~repro.backend.ComputePolicy.mixed_entropies`,
    :func:`support_entropies` and
    :func:`~repro.quantum.entropy.von_neumann_entropies` all call it).

    :func:`~repro.utils.linalg.safe_xlogx` clips tiny negative eigenvalues
    to zero.
    """
    return -safe_xlogx(np.linalg.eigvalsh(stack)).sum(axis=-1)


def support_entropies(stack: np.ndarray) -> np.ndarray:
    """Float64 von Neumann entropies of an ``(n, m, m)`` stack, each
    matrix solved on its own support bucket (dense-bucket matrices get the
    dense ``eigvalsh`` arithmetic bit for bit)."""
    m = int(stack.shape[-1])
    if m < SUPPORT_MIN_DIM:
        return eig_entropies(stack)
    out = np.empty(stack.shape[0])
    for size, positions, gather in support_buckets(support_masks(stack)):
        if gather is None:
            sub = stack[positions]
        else:
            sub = take_principal(stack, positions, gather_offsets(gather, m))
        out[positions] = eig_entropies(sub)
    return out
