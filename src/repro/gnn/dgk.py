"""Deep Graph Kernel (DGK, Yanardag & Vishwanathan, KDD 2015).

DGK lifts a substructure-count kernel ``K = Phi Phiᵀ`` to
``K = Phi M Phiᵀ`` where ``M`` encodes learned substructure similarity.
Following the paper's WL variant, ``M`` is built from substructure
co-occurrence: labels that appear in the same graphs get correlated rows,
via a PMI-flavoured, PSD-projected similarity of the co-occurrence counts.

The original learns ``M`` with a skip-gram model over substructure
"sentences"; the co-occurrence PMI construction below is the standard
count-based equivalent (Levy & Goldberg 2014) and keeps the pipeline
deterministic and dependency-free. Classification uses the same C-SVM
protocol as the kernels.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.kernels.base import GraphKernel, KernelTraits
from repro.kernels.wl import wl_feature_matrix
from repro.utils.linalg import project_to_psd
from repro.utils.validation import check_in_range, check_positive_int


class DeepGraphKernel(GraphKernel):
    """DGK over WL subtree features with a PMI co-occurrence matrix ``M``."""

    name = "DGK"
    traits = KernelTraits(
        framework="R-convolution",
        positive_definite=True,
        aligned=False,
        transitive=False,
        structure_patterns=("Local (Subtrees)", "Learned embeddings"),
        computing_model="Classical",
        captures_local=True,
        captures_global=False,
        notes="count-based PMI embedding of WL substructures",
    )

    def __init__(self, *, n_iterations: int = 3, smoothing: float = 1.0) -> None:
        self.n_iterations = check_positive_int(n_iterations, "n_iterations", minimum=0)
        self.smoothing = check_in_range(
            smoothing, "smoothing", low=0.0, high=np.inf, low_inclusive=False
        )

    def _compute_gram(self, graphs: "list[Graph]", *, engine) -> np.ndarray:
        features = wl_feature_matrix(graphs, self.n_iterations)
        similarity = self._substructure_similarity(features)
        return features @ similarity @ features.T

    def _substructure_similarity(self, features: np.ndarray) -> np.ndarray:
        """PSD similarity between substructures from graph co-occurrence."""
        presence = (features > 0).astype(float)  # (graphs, labels)
        cooccurrence = presence.T @ presence  # label-by-label counts
        label_freq = np.maximum(presence.sum(axis=0), 1.0)
        total = max(float(presence.shape[0]), 1.0)
        expected = np.outer(label_freq, label_freq) / total
        pmi = np.log((cooccurrence + self.smoothing) / (expected + self.smoothing))
        pmi = np.clip(pmi, 0.0, None)  # positive PMI
        np.fill_diagonal(pmi, pmi.diagonal() + 1.0)  # keep self-similarity dominant
        return project_to_psd((pmi + pmi.T) / 2.0)
