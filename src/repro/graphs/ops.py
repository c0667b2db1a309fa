"""Graph-level operations shared by kernels and the quantum substrate.

These are free functions over :class:`~repro.graphs.graph.Graph` so they can
be composed without subclassing: Laplacian variants, k-core decomposition
(for the CORE kernel framework), triangle counting, and simple structural
statistics.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError, ValidationError
from repro.graphs.graph import Graph


def degree_matrix(graph: Graph) -> np.ndarray:
    """Diagonal matrix of weighted degrees."""
    return np.diag(graph.degrees())


def laplacian(graph: Graph) -> np.ndarray:
    """Combinatorial Laplacian ``L = D - A``."""
    return np.asarray(graph.laplacian())


def normalized_laplacian(graph: Graph) -> np.ndarray:
    """Symmetric normalised Laplacian ``I - D^{-1/2} A D^{-1/2}``.

    Isolated vertices contribute an identity row/column (their normalised
    degree is defined as zero), matching the spectral-graph-theory
    convention.
    """
    return normalized_laplacian_matrix(graph.adjacency)


def normalized_laplacian_matrix(adjacency: np.ndarray) -> np.ndarray:
    """``I - D^{-1/2} A D^{-1/2}`` of a symmetric non-negative matrix.

    ``D`` holds the row sums, diagonal included, so a matrix with diagonal
    mass (an aligned adjacency, paper Eq. 19) is accepted as it is; rows of
    zero degree become identity rows. On a graph's adjacency this is
    :func:`normalized_laplacian`.
    """
    degrees = adjacency.sum(axis=1)
    n = adjacency.shape[0]
    inv_sqrt = np.zeros(n)
    positive = degrees > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degrees[positive])
    scaled = adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    return np.eye(n) - scaled


def transition_matrix(graph: Graph) -> np.ndarray:
    """Random-walk transition matrix ``D^{-1} A`` (rows of isolated vertices
    are self-loops, so the matrix stays row-stochastic)."""
    adjacency = graph.adjacency
    degrees = graph.degrees()
    n = graph.n_vertices
    matrix = np.zeros((n, n))
    for u in range(n):
        if degrees[u] > 0:
            matrix[u] = adjacency[u] / degrees[u]
        else:
            matrix[u, u] = 1.0
    return matrix


def degree_distribution(graph: Graph) -> np.ndarray:
    """Stationary-style probability vector ``d_u / sum(d)``.

    For a graph with no edges this degenerates to the uniform distribution,
    which keeps the CTQW initial state well defined on aligned structures
    with empty rows.
    """
    degrees = graph.degrees()
    total = float(degrees.sum())
    n = graph.n_vertices
    if n == 0:
        return np.empty(0)
    if total <= 0:
        return np.full(n, 1.0 / n)
    return degrees / total


def core_numbers(graph: Graph) -> np.ndarray:
    """Per-vertex core numbers via the Batagelj–Zaversnik peeling algorithm.

    The k-core of a graph is the maximal subgraph in which every vertex has
    degree >= k; core numbers drive the CORE-WL / CORE-SP kernel variants
    (Nikolentzos et al., IJCAI 2018).
    """
    n = graph.n_vertices
    if n == 0:
        return np.empty(0, dtype=int)
    neighbor_lists = graph.neighbor_lists()
    current = graph.unweighted_degrees().astype(int).copy()
    core = np.zeros(n, dtype=int)
    removed = np.zeros(n, dtype=bool)
    peeled_max = 0
    for _ in range(n):
        # Peel the not-yet-removed vertex of minimum remaining degree. The
        # scan makes this O(n^2); fine for Table II graph sizes and far
        # simpler than a bucket queue.
        alive = np.flatnonzero(~removed)
        v = int(alive[np.argmin(current[alive])])
        peeled_max = max(peeled_max, int(current[v]))
        core[v] = peeled_max
        removed[v] = True
        for u in neighbor_lists[v]:
            if not removed[u]:
                current[u] -= 1
    return core


def k_core_subgraph(graph: Graph, k: int) -> tuple:
    """The ``k``-core as ``(subgraph, vertex_indices)``.

    ``vertex_indices`` maps subgraph vertices back to the original graph.
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    core = core_numbers(graph)
    members = np.flatnonzero(core >= k)
    return graph.subgraph(members), members


def degeneracy(graph: Graph) -> int:
    """Maximum core number (0 for the empty graph)."""
    core = core_numbers(graph)
    return int(core.max()) if core.size else 0


def triangle_count(graph: Graph) -> int:
    """Number of triangles, from the trace of ``A^3`` on the 0/1 skeleton."""
    skeleton = (graph.adjacency > 0).astype(float)
    return int(round(np.trace(skeleton @ skeleton @ skeleton) / 6.0))


def clustering_coefficient(graph: Graph) -> float:
    """Global clustering coefficient (3 * triangles / connected triples)."""
    skeleton = (graph.adjacency > 0).astype(float)
    degrees = skeleton.sum(axis=1)
    triples = float(np.sum(degrees * (degrees - 1)) / 2.0)
    if triples == 0:
        return 0.0
    triangles = np.trace(skeleton @ skeleton @ skeleton) / 6.0
    return float(3.0 * triangles / triples)


def disjoint_union(graphs: "list[Graph]") -> Graph:
    """Disjoint union; vertex blocks follow the order of ``graphs``."""
    if not graphs:
        return Graph(np.zeros((0, 0)))
    total = sum(g.n_vertices for g in graphs)
    adjacency = np.zeros((total, total))
    has_labels = all(g.labels is not None for g in graphs)
    labels = [] if has_labels else None
    offset = 0
    for g in graphs:
        n = g.n_vertices
        adjacency[offset : offset + n, offset : offset + n] = g.adjacency
        if has_labels:
            labels.extend(int(x) for x in g.labels)
        offset += n
    return Graph(adjacency, labels=labels)


def max_shortest_path_length(graphs: "list[Graph]") -> int:
    """Greatest finite shortest-path length over a collection of graphs.

    This is the paper's definition of ``K``, the largest DB-representation
    layer (Section III-A). Disconnected pairs are ignored; the result is at
    least 1 for any collection containing an edge.
    """
    if not graphs:
        raise GraphError("max_shortest_path_length needs at least one graph")
    best = 0
    for g in graphs:
        dist = g.shortest_path_lengths()
        if dist.size:
            finite = dist[dist >= 0]
            if finite.size:
                best = max(best, int(finite.max()))
    return max(best, 1)
