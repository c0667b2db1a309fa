"""The core :class:`Graph` type.

Graphs are undirected, optionally edge-weighted, with vertices indexed
``0..n-1`` and optional integer vertex labels. Instances are value objects:
the adjacency matrix is copied in and marked read-only, and derived
quantities (degrees, shortest paths) are memoised per instance.

The HAQJSK paper targets *un-attributed* graphs; vertex labels are carried
for the attributed baselines (WLSK, SPGK on labelled data) and for datasets
such as MUTAG/PTC whose vertices are labelled (Table II).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError, ValidationError
from repro.utils.caching import cached_on_instance

_ADJ_TOL = 1e-12


class Graph:
    """An undirected (weighted) graph over vertices ``0..n-1``.

    Parameters
    ----------
    adjacency:
        Square symmetric matrix of non-negative edge weights. A zero entry
        means "no edge"; the diagonal must be zero (no self loops).
    labels:
        Optional per-vertex integer labels, length ``n``. ``None`` marks the
        graph as un-attributed; kernels that need labels fall back to vertex
        degrees, following the paper's protocol for unlabelled datasets.
    name:
        Optional human-readable identifier (used in error messages only).
    """

    __slots__ = ("_adjacency", "_labels", "name", "__dict__")

    def __init__(
        self,
        adjacency: np.ndarray,
        labels: "Sequence[int] | None" = None,
        name: str = "",
    ) -> None:
        arr = np.asarray(adjacency, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise GraphError(f"adjacency must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise GraphError("adjacency contains non-finite entries")
        if arr.size and not np.allclose(arr, arr.T, atol=1e-9):
            raise GraphError("adjacency must be symmetric (undirected graph)")
        if arr.size and np.any(arr < -_ADJ_TOL):
            raise GraphError("adjacency must have non-negative weights")
        if arr.size and np.any(np.abs(np.diag(arr)) > _ADJ_TOL):
            raise GraphError("self loops are not supported (non-zero diagonal)")
        arr = (arr + arr.T) / 2.0
        arr[np.abs(arr) <= _ADJ_TOL] = 0.0
        np.fill_diagonal(arr, 0.0)
        arr.setflags(write=False)
        self._adjacency = arr

        if labels is not None:
            label_arr = np.asarray(labels, dtype=int)
            if label_arr.ndim != 1 or label_arr.shape[0] != arr.shape[0]:
                raise GraphError(
                    f"labels must have length {arr.shape[0]}, got shape {label_arr.shape}"
                )
            label_arr.setflags(write=False)
            self._labels = label_arr
        else:
            self._labels = None
        self.name = str(name)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only adjacency matrix (n x n, float weights)."""
        return self._adjacency

    @property
    def labels(self) -> "np.ndarray | None":
        """Per-vertex integer labels, or ``None`` for un-attributed graphs."""
        return self._labels

    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return self._adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (weight > 0)."""
        return int(np.count_nonzero(np.triu(self._adjacency, k=1)))

    @property
    def is_weighted(self) -> bool:
        """True if any edge weight differs from 1."""
        weights = self._adjacency[self._adjacency > 0]
        return bool(weights.size and not np.allclose(weights, 1.0))

    def __len__(self) -> int:
        return self.n_vertices

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Graph(n={self.n_vertices}, m={self.n_edges}{tag})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n_vertices != other.n_vertices:
            return False
        if not np.array_equal(self._adjacency, other._adjacency):
            return False
        if (self._labels is None) != (other._labels is None):
            return False
        if self._labels is not None and not np.array_equal(self._labels, other._labels):
            return False
        return True

    def __hash__(self) -> int:
        label_bytes = b"" if self._labels is None else self._labels.tobytes()
        return hash((self._adjacency.tobytes(), label_bytes))

    # ------------------------------------------------------------------ #
    # Derived structural quantities (memoised)
    # ------------------------------------------------------------------ #

    @cached_on_instance
    def degrees(self) -> np.ndarray:
        """Weighted vertex degrees (row sums of the adjacency matrix)."""
        out = self._adjacency.sum(axis=1)
        out.setflags(write=False)
        return out

    @cached_on_instance
    def unweighted_degrees(self) -> np.ndarray:
        """Number of neighbours per vertex, ignoring weights."""
        out = (self._adjacency > 0).sum(axis=1).astype(float)
        out.setflags(write=False)
        return out

    @cached_on_instance
    def laplacian(self) -> np.ndarray:
        """Combinatorial Laplacian ``L = D - A`` (the paper's Hamiltonian)."""
        lap = np.diag(self.degrees()) - self._adjacency
        lap.setflags(write=False)
        return lap

    @cached_on_instance
    def shortest_path_lengths(self) -> np.ndarray:
        """All-pairs hop distances (BFS on the unweighted skeleton).

        Unreachable pairs get ``-1``. Weights are ignored: the paper's DB
        representations and shortest-path kernels use hop counts. scipy's
        compiled unweighted search from every source costs O(n·m); a dense
        frontier matmul is faster on ~100-vertex graphs but costs
        O(diameter·n³), far more on large sparse graphs. The adjacency is
        symmetric by construction, so the directed search finds the same
        hops without building a transpose. scipy is imported on the first
        call, so ``import repro`` does not load it.
        """
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import shortest_path

        hops = shortest_path(
            csr_array(self._adjacency), method="D", unweighted=True, directed=True
        )
        hops[np.isinf(hops)] = -1
        dist = hops.astype(np.int64)
        dist.setflags(write=False)
        return dist

    @cached_on_instance
    def neighbor_lists(self) -> list:
        """Adjacency lists (list of int lists), ignoring weights."""
        return [np.flatnonzero(self._adjacency[u] > 0).tolist() for u in range(self.n_vertices)]

    def neighbors(self, vertex: int) -> list:
        """Neighbours of ``vertex`` as a list of ints."""
        self._check_vertex(vertex)
        return list(self.neighbor_lists()[vertex])

    def eccentricities(self) -> np.ndarray:
        """Per-vertex eccentricity; ``-1`` for vertices in disconnected graphs."""
        dist = self.shortest_path_lengths()
        if self.n_vertices == 0:
            return np.empty(0, dtype=np.int64)
        if np.any(dist < 0):
            return np.full(self.n_vertices, -1, dtype=np.int64)
        return dist.max(axis=1)

    def diameter(self) -> int:
        """Longest shortest path; ``-1`` if the graph is disconnected/empty."""
        ecc = self.eccentricities()
        if ecc.size == 0 or np.any(ecc < 0):
            return -1
        return int(ecc.max())

    def effective_labels(self) -> np.ndarray:
        """Vertex labels, falling back to unweighted degrees when unlabelled.

        This mirrors the paper's protocol (Table II footnote): datasets with
        no vertex labels use vertex degrees as the labels.
        """
        if self._labels is not None:
            return np.asarray(self._labels, dtype=int)
        return self.unweighted_degrees().astype(int)

    # ------------------------------------------------------------------ #
    # Structure-producing operations
    # ------------------------------------------------------------------ #

    def edges(self) -> Iterator[tuple]:
        """Iterate undirected edges as ``(u, v, weight)`` with ``u < v``."""
        upper = np.triu(self._adjacency, k=1)
        for u, v in zip(*np.nonzero(upper)):
            yield int(u), int(v), float(upper[u, v])

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Vertex-induced subgraph, re-indexed to ``0..k-1`` in given order."""
        idx = np.asarray(list(vertices), dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_vertices):
            raise GraphError("subgraph vertices out of range")
        if len(set(idx.tolist())) != idx.size:
            raise GraphError("subgraph vertices must be unique")
        sub_adj = self._adjacency[np.ix_(idx, idx)]
        sub_labels = None if self._labels is None else self._labels[idx]
        return Graph(sub_adj, labels=sub_labels, name=self.name)

    def expansion_subgraph(self, root: int, layer: int) -> "Graph":
        """The ``layer``-layer expansion subgraph rooted at ``root``.

        Induced on all vertices within hop distance ``<= layer`` of the root —
        the substructure underlying the depth-based representations
        (paper Section III-A, following Bai & Hancock 2014).
        """
        self._check_vertex(root)
        if layer < 0:
            raise ValidationError(f"layer must be >= 0, got {layer}")
        dist_from_root = self.shortest_path_lengths()[root]
        members = np.flatnonzero((dist_from_root >= 0) & (dist_from_root <= layer))
        return self.subgraph(members)

    def permuted(self, permutation: Sequence[int]) -> "Graph":
        """Relabel vertices: new vertex ``i`` is old vertex ``permutation[i]``."""
        perm = np.asarray(permutation, dtype=int)
        if perm.shape != (self.n_vertices,) or sorted(perm.tolist()) != list(
            range(self.n_vertices)
        ):
            raise GraphError("permutation must be a rearrangement of 0..n-1")
        new_adj = self._adjacency[np.ix_(perm, perm)]
        new_labels = None if self._labels is None else self._labels[perm]
        return Graph(new_adj, labels=new_labels, name=self.name)

    def with_labels(self, labels: "Sequence[int] | None") -> "Graph":
        """Copy of this graph with different (or removed) vertex labels."""
        return Graph(self._adjacency, labels=labels, name=self.name)

    def connected_components(self) -> list:
        """Connected components as lists of vertex indices (each sorted)."""
        n = self.n_vertices
        seen = np.zeros(n, dtype=bool)
        components: list = []
        neighbor_lists = self.neighbor_lists()
        for start in range(n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            component = []
            while stack:
                u = stack.pop()
                component.append(u)
                for v in neighbor_lists[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            components.append(sorted(component))
        return components

    def is_connected(self) -> bool:
        """True for the empty graph and any single-component graph."""
        return self.n_vertices == 0 or len(self.connected_components()) == 1

    def largest_component(self) -> "Graph":
        """The subgraph induced on the largest connected component."""
        components = self.connected_components()
        if not components:
            return self
        biggest = max(components, key=len)
        return self.subgraph(biggest)

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (weights + ``label`` attrs)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n_vertices))
        if self._labels is not None:
            for v in range(self.n_vertices):
                g.nodes[v]["label"] = int(self._labels[v])
        for u, v, w in self.edges():
            g.add_edge(u, v, weight=w)
        return g

    @classmethod
    def from_networkx(cls, nx_graph, *, label_attr: str = "label") -> "Graph":
        """Build from a networkx graph; nodes are re-indexed to 0..n-1."""
        nodes = list(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        adjacency = np.zeros((n, n))
        for u, v, data in nx_graph.edges(data=True):
            if u == v:
                continue
            weight = float(data.get("weight", 1.0))
            adjacency[index[u], index[v]] = weight
            adjacency[index[v], index[u]] = weight
        labels = None
        if all(label_attr in nx_graph.nodes[node] for node in nodes) and n > 0:
            labels = [int(nx_graph.nodes[node][label_attr]) for node in nodes]
        return cls(adjacency, labels=labels)

    # ------------------------------------------------------------------ #
    # Internal
    # ------------------------------------------------------------------ #

    def _check_vertex(self, vertex: int) -> None:
        if not (0 <= int(vertex) < self.n_vertices):
            raise GraphError(
                f"vertex {vertex} out of range for graph with {self.n_vertices} vertices"
            )
