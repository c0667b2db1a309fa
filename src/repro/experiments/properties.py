"""Tables I & III — kernel properties, verified empirically.

The paper's Table I asserts qualitative properties (positive definite,
permutation invariant, transitive alignment, ...). This experiment does not
just restate them: it *measures* each claim on a probe dataset —

* **PD**: smallest eigenvalue of the normalised Gram matrix;
* **permutation invariance**: rebuild the Gram with one graph's vertices
  randomly permuted and compare;
* **transitive alignment**: check the alignment relation's transitivity
  directly (HAQJSK via its correspondence matrices; pairwise aligners via
  composing their matchings across graph triples).

Table III's taxonomy columns come from each kernel's ``traits``.
"""

from __future__ import annotations

import numpy as np

from repro.alignment import correspondence_is_transitive, correspondence_matrices
from repro.alignment.depth_based import DBRepresentationExtractor
from repro.alignment.prototypes import fit_prototype_hierarchy
from repro.alignment.umeyama import umeyama_correspondence
from repro.datasets import load_dataset
from repro.experiments.reporting import format_table
from repro.kernels.registry import lenient_spec
from repro.quantum.density import graph_density_matrix, pad_density_matrix
from repro.utils.linalg import eigh_sorted
from repro.utils.rng import as_rng

PROPERTY_KERNELS = (
    "HAQJSK(A)", "HAQJSK(D)", "HAQJSK-L(A)", "HAQJSK-L(D)",
    "QJSK", "ASK", "JTQK", "GCGK", "WLSK", "SPGK", "PMGK", "SPEGK",
)


def probe_dataset(*, seed: int = 0, n_per_class: int = 8):
    """Small two-domain dataset used for the property measurements."""
    dataset = load_dataset("MUTAG", scale=0.15, seed=seed)
    return dataset.stratified_subsample(n_per_class, seed=seed)


def min_gram_eigenvalue(
    kernel_name: str, graphs, *, seed: int = 0, ctx=None
) -> float:
    """Smallest eigenvalue of the normalised Gram (>= -1e-8 means PSD)."""
    kernel = lenient_spec(kernel_name, n_prototypes=16, seed=seed).make()
    gram = kernel.gram(graphs, normalize=True, ctx=ctx)
    values, _ = eigh_sorted(gram)
    return float(values[0])


def permutation_deviation(
    kernel_name: str, graphs, *, seed: int = 0, ctx=None
) -> float:
    """Max |K - K_permuted| after randomly permuting one graph's vertices.

    A permutation-invariant kernel gives (numerically) zero. The unaligned
    QJSK baseline does not, which is exactly the paper's criticism.
    """
    rng = as_rng(seed)
    target = int(rng.integers(0, len(graphs)))
    permutation = rng.permutation(graphs[target].n_vertices)
    permuted = list(graphs)
    permuted[target] = graphs[target].permuted(permutation)
    kernel_a = lenient_spec(kernel_name, n_prototypes=16, seed=seed).make()
    kernel_b = lenient_spec(kernel_name, n_prototypes=16, seed=seed).make()
    gram_a = kernel_a.gram(graphs, normalize=True, ctx=ctx)
    gram_b = kernel_b.gram(permuted, normalize=True, ctx=ctx)
    return float(np.max(np.abs(gram_a - gram_b)))


def haqjsk_alignment_transitive(graphs, *, seed: int = 0) -> bool:
    """Direct check of the HAQJSK correspondence transitivity claim."""
    extractor = DBRepresentationExtractor(max_layers=5)
    representations = extractor.fit_transform(graphs)
    pooled = np.vstack(representations)
    hierarchy = fit_prototype_hierarchy(
        pooled, n_prototypes=8, n_levels=3, seed=seed
    )
    for level in range(1, hierarchy.n_levels + 1):
        matrices = [
            correspondence_matrices(rep, hierarchy)[level - 1]
            for rep in representations
        ]
        if not correspondence_is_transitive(matrices):
            return False
    return True


def umeyama_alignment_transitive(graphs, *, seed: int = 0) -> bool:
    """Check whether pairwise Umeyama matchings compose transitively.

    For graphs p, q, r: does ``Q_pq @ Q_qr == Q_pr``? Generally not — this
    is the paper's argument for why QJSK(A)/ASK are not PD. Returns True
    only if every sampled triple composes exactly.
    """
    rng = as_rng(seed)
    size = max(g.n_vertices for g in graphs)
    densities = [
        pad_density_matrix(graph_density_matrix(g), size) for g in graphs
    ]
    indices = rng.choice(len(graphs), size=min(4, len(graphs)), replace=False)
    for p in indices:
        for q in indices:
            for r in indices:
                if len({int(p), int(q), int(r)}) < 3:
                    continue
                q_pq = umeyama_correspondence(densities[p], densities[q])
                q_qr = umeyama_correspondence(densities[q], densities[r])
                q_pr = umeyama_correspondence(densities[p], densities[r])
                if not np.array_equal((q_pq @ q_qr) > 0.5, q_pr > 0.5):
                    return False
    return True


def run_properties(
    *, seed: int = 0, kernels=PROPERTY_KERNELS, ctx=None
) -> "list[dict]":
    """Measured Table I rows for each kernel, with every Gram computed
    under ``ctx`` (an :class:`~repro.api.ExecutionContext`; ``None``
    means the defaults)."""
    dataset = probe_dataset(seed=seed)
    graphs = dataset.graphs
    haqjsk_transitive = haqjsk_alignment_transitive(graphs, seed=seed)
    umeyama_transitive = umeyama_alignment_transitive(graphs, seed=seed)
    rows = []
    for name in kernels:
        kernel = lenient_spec(name, n_prototypes=16, seed=seed).make()
        traits = kernel.traits
        min_eig = min_gram_eigenvalue(name, graphs, seed=seed, ctx=ctx)
        deviation = permutation_deviation(name, graphs, seed=seed, ctx=ctx)
        if name.startswith("HAQJSK"):
            transitive = "Yes" if haqjsk_transitive else "VIOLATED"
        elif traits.aligned:
            transitive = "Yes" if umeyama_transitive else "No"
        else:
            transitive = "-"
        rows.append(
            {
                "Kernel": name,
                "Framework": traits.framework,
                "Computing": traits.computing_model,
                "PD (claimed)": "Yes" if traits.positive_definite else "No",
                "min Gram eig": f"{min_eig:.2e}",
                "Perm. dev": f"{deviation:.2e}",
                "Aligned": "Yes" if traits.aligned else "No",
                "Transitive": transitive,
                "Hierarchical": "Yes" if traits.hierarchical else "No",
                "Local": "Yes" if traits.captures_local else "No",
                "Global": "Yes" if traits.captures_global else "No",
            }
        )
    return rows


def main(argv=None) -> str:  # pragma: no cover - CLI glue
    from repro.experiments.config import execution_context

    table = format_table(run_properties(ctx=execution_context()))
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
