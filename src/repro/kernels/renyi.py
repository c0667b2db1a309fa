"""Depth-based Rényi entropy kernel (SPEGK/SREGK, Xu et al. 2021, ref. [25]).

Each vertex is described by the second-order Rényi entropies of its
expansion subgraphs (a Rényi flavour of the DB representation); the kernel
aligns the two vertex sets with a linear assignment and sums a Gaussian
similarity over the aligned representation pairs.

Like ASK, the pairwise alignment is not transitive, so the kernel is not
guaranteed PD; ``ensure_psd=True`` repairs the Gram matrix for the SVM.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.kernels.base import KernelTraits, PairwiseKernel
from repro.kernels.registry import register_kernel, scaled
from repro.utils.validation import check_in_range, check_positive_int


def renyi2_db_representations(graph: Graph, n_layers: int) -> np.ndarray:
    """Per-vertex depth-based Rényi-2 entropy vectors (``(n, n_layers)``).

    Layer ``j`` holds the second-order Rényi entropy
    ``-log sum_u p_u^2`` of the degree distribution of the j-layer
    expansion subgraph rooted at the vertex.
    """
    n = graph.n_vertices
    distances = graph.shortest_path_lengths()
    adjacency = graph.adjacency
    output = np.zeros((n, n_layers))
    for v in range(n):
        dist_v = distances[v]
        reachable = dist_v >= 0
        previous = 0.0
        max_depth = int(dist_v[reachable].max()) if reachable.any() else 0
        for layer in range(1, n_layers + 1):
            if layer <= max_depth or layer == 1:
                members = np.flatnonzero(reachable & (dist_v <= layer))
                block = adjacency[np.ix_(members, members)]
                degrees = block.sum(axis=1)
                total = degrees.sum()
                if total > 0:
                    p = degrees / total
                    collision = float(np.sum(p * p))
                    previous = -np.log(collision) if collision > 0 else 0.0
                else:
                    previous = 0.0
            output[v, layer - 1] = previous
    return output


@register_kernel("SPEGK", defaults={"n_layers": scaled(6, 10)})
class RenyiEntropyKernel(PairwiseKernel):
    """SPEGK: Gaussian similarity over optimally aligned Rényi DB vectors."""

    name = "SPEGK"
    #: DB vectors use the kernel's fixed ``n_layers``, not a
    #: collection-level layer count; the assignment is per pair.
    collection_independent = True
    traits = KernelTraits(
        framework="Information Theory",
        positive_definite=False,
        aligned=True,
        transitive=False,
        structure_patterns=("Local (Vertices)",),
        computing_model="Classical",
        captures_local=True,
        captures_global=False,
        notes="pairwise alignment of Rényi-2 DB vectors",
    )

    def __init__(self, *, n_layers: int = 10, gamma: float = 1.0) -> None:
        self.n_layers = check_positive_int(n_layers, "n_layers", minimum=1)
        self.gamma = check_in_range(gamma, "gamma", low=0.0, high=np.inf, low_inclusive=False)

    def prepare(self, graphs: "list[Graph]") -> list:
        return [renyi2_db_representations(g, self.n_layers) for g in graphs]

    def pair_value(self, state_a, state_b) -> float:
        from scipy.optimize import linear_sum_assignment

        diffs = state_a[:, None, :] - state_b[None, :, :]
        sq_dists = np.sum(diffs**2, axis=2)
        rows, cols = linear_sum_assignment(sq_dists)
        return float(np.exp(-self.gamma * sq_dists[rows, cols]).sum())
