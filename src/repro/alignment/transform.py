"""Fixed-size transitive aligned structures (paper Eq. 18-25).

Given a graph's adjacency ``A_p`` (or CTQW density matrix ``rho_p``) and its
level-h correspondence matrix ``C^{h,k}_p``, the aligned structures are

    A^{h,k}_p   = C^{h,k}_pᵀ A_p   C^{h,k}_p        (Eq. 19)
    rho^{h,k}_p = C^{h,k}_pᵀ rho_p C^{h,k}_p        (Eq. 21)

both of size ``|P^{h,k}| x |P^{h,k}|``, shared by every graph in the
collection. Averaging over the DB dimension k gives the *Hierarchical
Transitive Aligned* adjacency/density matrices (Eq. 22-25).

Each HAQJSK variant reads one of the two: HAQJSK(A) the aligned
adjacencies (Eq. 23/26), HAQJSK(D) the aligned densities (Eq. 25/29).
:meth:`repro.kernels.haqjsk.HierarchicalAligner.transform` therefore
takes the name of the structure its caller reads and builds only that
one, with :func:`hierarchical_aligned`.

``C`` is one-hot (Eq. 15/17), so entry ``(a, b)`` of ``Cᵀ X C`` is the sum
of ``X`` over the vertex pairs mapped to prototypes ``a`` and ``b``.
:func:`hierarchical_aligned` computes every level of the k-average as such
segment sums: no correspondence matrix is formed. :func:`aligned_adjacency`
and :func:`aligned_density` keep the dense congruence of one ``C`` as the
validated reference. The scatter adds the same terms in another order, so
adjacencies with integer weights come out bit-equal and densities agree
to round-off (DESIGN.md "Aligned matrices by scatter").

Faithfulness notes (see DESIGN.md):

* Eq. 19/31 literally write ``C^{1,k}ᵀ X C^{h,k}``, which is non-square for
  h > 1 and contradicts the stated output shape; we implement the
  shape-consistent ``C^{h,k}ᵀ X C^{h,k}`` (Eq. 28 agrees).
* ``Cᵀ rho C`` preserves PSD-ness (congruence) but not unit trace, and the
  von Neumann entropy in the QJSD needs a density matrix, so the aligned
  density matrix is renormalised to trace 1 by default (switchable for the
  ablation bench).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlignmentError
from repro.alignment.correspondence import check_correspondence_matrix
from repro.alignment.prototypes import PrototypeHierarchy
from repro.utils.linalg import EIG_TOL, normalized_trace_one
from repro.utils.validation import check_symmetric_matrix


def aligned_adjacency(adjacency: np.ndarray, correspondence: np.ndarray) -> np.ndarray:
    """``Cᵀ A C`` — the fixed-size aligned adjacency matrix (Eq. 19).

    The result is a weighted structure over prototypes: entry ``(a, b)``
    counts the edges between vertices mapped to prototypes ``a`` and ``b``
    (diagonal entries aggregate intra-prototype edges and act as vertex
    weights for the CTQW Laplacian, where they cancel).
    """
    a = check_symmetric_matrix(adjacency, "adjacency")
    c = check_correspondence_matrix(correspondence)
    if c.shape[0] != a.shape[0]:
        raise AlignmentError(
            f"correspondence has {c.shape[0]} rows for a "
            f"{a.shape[0]}-vertex graph"
        )
    out = c.T @ a @ c
    return (out + out.T) / 2.0


def aligned_density(
    density: np.ndarray, correspondence: np.ndarray, *, renormalize: bool = True
) -> np.ndarray:
    """``Cᵀ rho C`` — the fixed-size aligned density matrix (Eq. 21).

    With ``renormalize=True`` (default) the output is scaled to unit trace
    so it remains a valid density matrix for the QJSD.
    """
    rho = check_symmetric_matrix(density, "density")
    c = check_correspondence_matrix(correspondence)
    if c.shape[0] != rho.shape[0]:
        raise AlignmentError(
            f"correspondence has {c.shape[0]} rows for a "
            f"{rho.shape[0]}-dim density"
        )
    out = c.T @ rho @ c
    out = (out + out.T) / 2.0
    if renormalize:
        out = normalized_trace_one(out, name="aligned density")
    return out


def hierarchical_aligned(
    source: np.ndarray,
    level1: "list[np.ndarray]",
    hierarchies: "list[PrototypeHierarchy]",
    *,
    renormalize: bool = False,
) -> "list[np.ndarray]":
    """One graph's Eq. 22-25 matrices: every level, averaged over k.

    ``source`` is the graph's adjacency or density matrix, ``level1[k]``
    the level-1 prototype of each of its vertices in DB dimension ``k``
    (the index form of ``C^{1,k}``), and ``hierarchies[k]`` the
    dimension's prototype hierarchy, whose memberships lift an index to
    any level. Element ``h - 1`` of the result equals

        (1/K) Σ_k aligned_density(source, C^{h,k}, renormalize=renormalize)

    (``aligned_adjacency`` when ``renormalize`` is false), with the same
    identity/size fallback for a trace at most ``EIG_TOL``.

    The source is summed once per dimension onto the ``t <= n`` level-1
    prototypes the graph hits, a ``t x t`` block, with one
    ``np.bincount``. Each level then scatters the blocks of all ``K``
    dimensions into its ``M_h x M_h`` bins with one more, each block
    divided by its level trace when ``renormalize`` is set.
    """
    src = check_symmetric_matrix(source, "source")
    n = src.shape[0]
    if not hierarchies or len(level1) != len(hierarchies):
        raise AlignmentError(
            f"need one level-1 assignment per hierarchy, got {len(level1)} "
            f"assignments for {len(hierarchies)} hierarchies"
        )
    sizes = [centers.shape[0] for centers in hierarchies[0].centers]
    for hierarchy in hierarchies[1:]:
        if [centers.shape[0] for centers in hierarchy.centers] != sizes:
            raise AlignmentError("hierarchies must share their level sizes")

    flat = src.ravel()
    hits, blocks, rows, cols = [], [], [], []
    first = 0
    for assignment in level1:
        index = np.asarray(assignment)
        if index.shape != (n,) or index.dtype.kind not in "iu":
            raise AlignmentError(
                f"a level-1 assignment must hold {n} integer indices, "
                f"got shape {index.shape} of {index.dtype}"
            )
        hit, local = np.unique(index, return_inverse=True)
        if hit.size and (hit[0] < 0 or hit[-1] >= sizes[0]):
            raise AlignmentError(
                f"level-1 assignment out of range for {sizes[0]} prototypes"
            )
        t = hit.size
        pairs = (local[:, None] * t + local).ravel()
        blocks.append(np.bincount(pairs, weights=flat, minlength=t * t))
        # The block's row and column, numbered across all dimensions' hits.
        span = np.arange(first, first + t)
        rows.append(np.repeat(span, t))
        cols.append(np.tile(span, t))
        hits.append(hit)
        first += t

    n_dims = len(hierarchies)
    counts = np.array([hit.size for hit in hits])
    owner = np.repeat(np.arange(n_dims), counts)  # dimension of each hit
    dims = np.repeat(np.arange(n_dims), counts * counts)  # ... of each entry
    labels = np.concatenate(hits)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    values = np.concatenate(blocks)
    doubled = np.repeat(values, 2)
    out = []
    for level, m in enumerate(sizes):
        if level:
            lift = np.stack([h.memberships[level - 1] for h in hierarchies])
            labels = lift[owner, labels]
        a = labels[rows]
        b = labels[cols]
        weights, fallbacks = doubled, 0
        if renormalize:
            same = a == b
            trace = np.bincount(dims[same], weights=values[same], minlength=n_dims)
            degenerate = trace <= EIG_TOL
            fallbacks = int(degenerate.sum())
            trace[degenerate] = np.inf  # those blocks add zeros
            weights = np.repeat(values / trace[dims], 2)
        # Every entry lands in bin (a, b) and, right after, in (b, a), so
        # the two bins add the same terms in the same order: the sum is
        # X + Xᵀ, exactly symmetric without a transposed pass over the
        # M_h x M_h result.
        bins = np.stack((a * m + b, b * m + a), axis=-1).ravel()
        total = np.bincount(bins, weights=weights, minlength=m * m).reshape(m, m)
        if fallbacks:
            total.flat[:: m + 1] += 2.0 * fallbacks / m
        total /= 2.0 * n_dims
        out.append(total)
    return out
