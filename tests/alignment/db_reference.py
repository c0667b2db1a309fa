"""The distance-mask Shannon DB representations, kept as the reference for
the Shannon path of :mod:`repro.alignment.depth_based`.

Here layer ``l``'s member mask comes from the hop distances
(``Graph.shortest_path_lengths``) and ``K`` from
:func:`repro.graphs.ops.max_shortest_path_length`. The library grows each
layer's mask from the previous layer's own product and takes ``K`` as the
deepest saturation level, which must give the same masks, so
representations and ``K`` must match this reference byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.ops import max_shortest_path_length
from repro.quantum.entropy import shannon_entropies


def reference_layer_count(graphs, max_layers: int) -> int:
    """The paper's ``K``: the greatest shortest-path length, capped."""
    return int(min(max_shortest_path_length(graphs), max_layers))


def reference_shannon_db(graph, n_layers: int) -> np.ndarray:
    """Shannon DB representations ``(n, n_layers)`` from hop distances."""
    n = graph.n_vertices
    if n == 0:
        return np.zeros((0, n_layers))
    return _shannon_db_representations(
        graph.adjacency, graph.shortest_path_lengths(), n_layers
    )


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
