"""Depth-based (DB) vertex representations (paper Section III-A, refs [26, 34]).

The K-dimensional DB representation of vertex ``v`` collects one entropy per
expansion layer:

    R^K(v) = [ H(G_1(v)), H(G_2(v)), ..., H(G_K(v)) ]

where ``G_j(v)`` is the subgraph induced on all vertices within hop distance
``j`` of ``v``, and ``H`` is an entropy of that subgraph. Following ref. [26]
the default entropy is the Shannon entropy of the subgraph's steady-state
random-walk (degree) distribution; a von Neumann variant is available for
the ablation benchmarks.

The k-dimensional representation used at DB level ``k`` (paper Eq. 12) is
simply the first ``k`` coordinates of ``R^K(v)``, so each graph computes its
K-dimensional matrix once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlignmentError, ValidationError
from repro.graphs.graph import Graph
from repro.graphs.ops import max_shortest_path_length
from repro.quantum.entropy import shannon_entropies, von_neumann_entropy
from repro.utils.linalg import safe_xlogx
from repro.utils.validation import check_positive_int

_ENTROPY_KINDS = ("shannon", "von_neumann")


def check_entropy_kind(entropy: str) -> str:
    """Return ``entropy`` when it names an expansion-subgraph entropy;
    raise :class:`~repro.errors.ValidationError` otherwise."""
    if entropy not in _ENTROPY_KINDS:
        raise ValidationError(
            f"entropy must be one of {_ENTROPY_KINDS}, got {entropy!r}"
        )
    return entropy


def _subgraph_entropy(adjacency: np.ndarray, kind: str) -> float:
    """Entropy of one expansion subgraph given its adjacency block."""
    degrees = adjacency.sum(axis=1)
    total = float(degrees.sum())
    if kind == "shannon":
        if total <= 0:
            return 0.0
        # Inlined shannon_entropy fast path (this runs once per vertex per
        # expansion layer): degrees are exact non-negative counts summing
        # to `total`, so one normalisation suffices — the historical
        # renormalise-by-the-float-mass second pass divided by 1.0 (to
        # round-off) and cost an extra O(n) sweep per subgraph.
        return float(-np.sum(safe_xlogx(degrees / total)))
    # von Neumann variant: normalised Laplacian spectrum as a pseudo-state.
    n = adjacency.shape[0]
    if n == 0 or total <= 0:
        return 0.0
    laplacian = np.diag(degrees) - adjacency
    trace = float(np.trace(laplacian))
    if trace <= 0:
        return 0.0
    return von_neumann_entropy(laplacian / trace)


def db_representations(
    graph: Graph,
    n_layers: int,
    *,
    entropy: str = "shannon",
) -> np.ndarray:
    """Per-vertex DB representation matrix of shape ``(n, n_layers)``.

    Row ``v`` holds ``[H(G_1(v)), ..., H(G_{n_layers}(v))]``. Layers beyond a
    vertex's eccentricity repeat the entropy of its full reachable set, which
    keeps representations comparable across graphs of different diameters
    (the entropy flow has simply saturated).
    """
    n_layers = check_positive_int(n_layers, "n_layers", minimum=1)
    check_entropy_kind(entropy)
    n = graph.n_vertices
    if n == 0:
        return np.zeros((0, n_layers))
    distances = graph.shortest_path_lengths()
    adjacency = graph.adjacency
    if entropy == "shannon":
        return _shannon_db_representations(adjacency, distances, n_layers)
    output = np.zeros((n, n_layers))
    for v in range(n):
        dist_v = distances[v]
        reachable = dist_v >= 0
        max_depth = int(dist_v[reachable].max()) if reachable.any() else 0
        previous = 0.0
        for layer in range(1, n_layers + 1):
            if layer <= max_depth or layer == 1:
                members = np.flatnonzero(reachable & (dist_v <= layer))
                block = adjacency[np.ix_(members, members)]
                previous = _subgraph_entropy(block, entropy)
            output[v, layer - 1] = previous
    return output


def _shannon_db_representations(
    adjacency: np.ndarray, distances: np.ndarray, n_layers: int
) -> np.ndarray:
    """All-vertex Shannon DB representations via masked matmuls.

    For layer ``l``, row ``v`` of ``mask`` flags the vertices within hop
    distance ``l`` of ``v``; the induced-subgraph degree of member ``u``
    is then ``(mask @ A)[v, u]`` (``A`` symmetric), masked back to the
    member set — no per-vertex subgraph extraction. Non-members carry
    exact zeros, which contribute nothing to the entropy (``0 log 0 = 0``),
    so each row reproduces the per-subgraph computation through one
    batched :func:`repro.quantum.entropy.shannon_entropies` call per
    layer. Saturated layers (beyond a vertex's eccentricity) reproduce
    the previous layer's value because their mask stops changing.
    """
    n = adjacency.shape[0]
    reachable = distances >= 0
    output = np.zeros((n, n_layers))
    for layer in range(1, n_layers + 1):
        mask = (reachable & (distances <= layer)).astype(float)
        degrees = mask * (mask @ adjacency)  # (n, n): member degrees, else 0
        output[:, layer - 1] = shannon_entropies(degrees)
    return output


class DBRepresentationExtractor:
    """Computes DB representations with a dataset-wide layer count ``K``.

    The paper sets ``K`` to the greatest shortest-path length over all
    graphs; for large-diameter datasets that is capped (``max_layers``) to
    keep the cost linear in a small constant — the entropies saturate with
    depth, so high layers carry little extra signal.
    """

    def __init__(
        self,
        *,
        max_layers: int = 10,
        entropy: str = "shannon",
    ) -> None:
        self.max_layers = check_positive_int(max_layers, "max_layers", minimum=1)
        self.entropy = check_entropy_kind(entropy)
        self.n_layers_: "int | None" = None

    def fit(self, graphs: "list[Graph]") -> "DBRepresentationExtractor":
        """Choose ``K`` from the collection (paper: max shortest path, capped)."""
        if not graphs:
            raise AlignmentError("need at least one graph to fit")
        diameter_bound = max_shortest_path_length(graphs)
        self.n_layers_ = int(min(diameter_bound, self.max_layers))
        return self

    def transform(self, graph: Graph) -> np.ndarray:
        """DB representation matrix ``(n_vertices, K)`` for one graph."""
        if self.n_layers_ is None:
            raise AlignmentError("extractor must be fitted before transform")
        return db_representations(graph, self.n_layers_, entropy=self.entropy)

    def fit_transform(self, graphs: "list[Graph]") -> "list[np.ndarray]":
        """Fit on the collection and return one matrix per graph."""
        self.fit(graphs)
        return [self.transform(g) for g in graphs]
