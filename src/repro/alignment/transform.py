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
one, from these congruences.

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
from repro.utils.linalg import normalized_trace_one
from repro.utils.validation import check_symmetric_matrix


def aligned_adjacency(
    adjacency: np.ndarray, correspondence: np.ndarray, *, validate: bool = True
) -> np.ndarray:
    """``Cᵀ A C`` — the fixed-size aligned adjacency matrix (Eq. 19).

    The result is a weighted structure over prototypes: entry ``(a, b)``
    counts the edges between vertices mapped to prototypes ``a`` and ``b``
    (diagonal entries aggregate intra-prototype edges and act as vertex
    weights for the CTQW Laplacian, where they cancel).

    ``validate=False`` skips the symmetry/correspondence checks — the
    aligner's inner loop calls this once per (graph, level, dimension)
    with inputs it constructed itself, and the checks cost more than the
    congruence. The arithmetic is identical either way.
    """
    if validate:
        a = check_symmetric_matrix(adjacency, "adjacency")
        c = check_correspondence_matrix(correspondence)
        if c.shape[0] != a.shape[0]:
            raise AlignmentError(
                f"correspondence has {c.shape[0]} rows for a "
                f"{a.shape[0]}-vertex graph"
            )
    else:
        a = np.asarray(adjacency, dtype=float)
        c = np.asarray(correspondence, dtype=float)
    out = c.T @ a @ c
    return (out + out.T) / 2.0


def aligned_density(
    density: np.ndarray,
    correspondence: np.ndarray,
    *,
    renormalize: bool = True,
    validate: bool = True,
) -> np.ndarray:
    """``Cᵀ rho C`` — the fixed-size aligned density matrix (Eq. 21).

    With ``renormalize=True`` (default) the output is scaled to unit trace
    so it remains a valid density matrix for the QJSD. ``validate=False``
    skips input checks for the aligner's inner loop (same arithmetic).
    """
    if validate:
        rho = check_symmetric_matrix(density, "density")
        c = check_correspondence_matrix(correspondence)
        if c.shape[0] != rho.shape[0]:
            raise AlignmentError(
                f"correspondence has {c.shape[0]} rows for a "
                f"{rho.shape[0]}-dim density"
            )
    else:
        rho = np.asarray(density, dtype=float)
        c = np.asarray(correspondence, dtype=float)
    out = c.T @ rho @ c
    out = (out + out.T) / 2.0
    if renormalize:
        out = normalized_trace_one(out, name="aligned density", validate=validate)
    return out


def average_over_k(matrices: "list[np.ndarray]") -> np.ndarray:
    """``(1/K) Σ_k M^{h,k}`` — the Eq. 23/25 average over DB dimensions.

    All matrices must share the fixed prototype size of level h.
    """
    if not matrices:
        raise AlignmentError("need at least one matrix to average")
    first = np.asarray(matrices[0], dtype=float)
    total = np.zeros_like(first)
    for m in matrices:
        arr = np.asarray(m, dtype=float)
        if arr.shape != first.shape:
            raise AlignmentError(
                f"cannot average matrices of shapes {first.shape} and {arr.shape}"
            )
        total += arr
    return total / len(matrices)
