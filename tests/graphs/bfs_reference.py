"""The per-source Python BFS, kept as the reference for
:meth:`repro.graphs.graph.Graph.shortest_path_lengths`.

The compiled all-sources search must reproduce this loop exactly: the same
hop counts, ``-1`` for unreachable pairs, an int64 read-only matrix.
"""

from __future__ import annotations

import numpy as np


def reference_shortest_path_lengths(graph) -> np.ndarray:
    """All-pairs hop distances by one Python BFS per source vertex."""
    n = graph.n_vertices
    dist = np.full((n, n), -1, dtype=np.int64)
    neighbor_lists = graph.neighbor_lists()
    for source in range(n):
        row = dist[source]
        row[source] = 0
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for u in frontier:
                for v in neighbor_lists[u]:
                    if row[v] < 0:
                        row[v] = depth
                        next_frontier.append(v)
            frontier = next_frontier
    dist.setflags(write=False)
    return dist
