"""Aligned subtree kernel (ASK, Bai et al., ICML 2015, ref. [23]).

For a pair of graphs the ASK (i) computes depth-based vertex
representations, (ii) finds a pairwise optimal vertex alignment by solving
a linear assignment on the representation distances, and (iii) accumulates,
for every aligned vertex pair, a subtree similarity (here: matching WL
labels over the subtree heights).

The alignment is *pairwise* — each pair of graphs is matched independently
— so it is not transitive, and the resulting Gram matrix is not guaranteed
PSD (the defect the HAQJSK construction removes). ``gram(...,
ensure_psd=True)`` is used before SVM training, matching common practice.
"""

from __future__ import annotations

import numpy as np

from repro.alignment.depth_based import DBRepresentationExtractor
from repro.graphs.graph import Graph
from repro.kernels.base import KernelTraits, PairwiseKernel
from repro.kernels.registry import register_kernel, scaled
from repro.kernels.wl import wl_label_sequences
from repro.utils.validation import check_positive_int


@register_kernel(
    "ASK",
    defaults={"n_iterations": scaled(4, 10), "max_layers": scaled(6, 10)},
)
class AlignedSubtreeKernel(PairwiseKernel):
    """ASK: count WL-subtree agreements between optimally aligned vertices.

    Parameters
    ----------
    n_iterations:
        Subtree height (paper: up to 50; WL vocabularies saturate far
        earlier on the benchmark graphs).
    max_layers:
        DB-representation depth used for the vertex alignment step.
    """

    name = "ASK"
    traits = KernelTraits(
        framework="Information Theory",
        positive_definite=False,
        aligned=True,
        transitive=False,
        structure_patterns=("Local (Vertices)", "Local (Subtrees)"),
        computing_model="Quantum Walks",
        captures_local=True,
        captures_global=False,
        notes="pairwise Hungarian alignment; not transitive",
    )
    #: The DB layer count K is chosen from the whole collection (greatest
    #: shortest-path length, capped): a new large-diameter graph deepens
    #: every old graph's representation and moves the Hungarian matching —
    #: gram_extend must refuse.
    collection_independent = False

    def __init__(self, *, n_iterations: int = 10, max_layers: int = 10) -> None:
        self.n_iterations = check_positive_int(n_iterations, "n_iterations", minimum=1)
        self.max_layers = check_positive_int(max_layers, "max_layers", minimum=1)

    def prepare(self, graphs: "list[Graph]") -> list:
        extractor = DBRepresentationExtractor(max_layers=self.max_layers)
        representations = extractor.fit_transform(graphs)
        sequences = wl_label_sequences(graphs, self.n_iterations)
        states = []
        for g_index in range(len(graphs)):
            label_stack = np.stack(
                [per_iter[g_index] for per_iter in sequences], axis=1
            )  # (n_vertices, n_iterations + 1)
            states.append((representations[g_index], label_stack))
        return states

    def pair_value(self, state_a, state_b) -> float:
        from scipy.optimize import linear_sum_assignment

        reps_a, labels_a = state_a
        reps_b, labels_b = state_b
        # Optimal assignment on squared representation distances.
        diffs = reps_a[:, None, :] - reps_b[None, :, :]
        cost = np.sum(diffs**2, axis=2)
        rows, cols = linear_sum_assignment(cost)
        # Each aligned pair contributes the number of WL iterations at which
        # their subtree labels agree (isomorphic height-h subtrees).
        agreements = (labels_a[rows] == labels_b[cols]).sum()
        return float(agreements)
