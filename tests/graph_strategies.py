"""Hypothesis strategies for generated graphs, shared across test folders.

``graphs()`` covers the empty and single-vertex graphs, isolated vertices,
several components, weighted and tiny-weight edges and paths longer than
20 hops.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graphs.graph import Graph

#: 1e-11 is above the 1e-12 threshold below which Graph drops an entry.
WEIGHTS = st.sampled_from([1.0, 1.0, 0.5, 2.75, 1e-9, 1e-11])


@st.composite
def graphs(draw):
    """Random edges over ``n`` vertices, plus an optional chain of up to 25
    extra vertices hanging off one of them or standing apart."""
    n = draw(st.integers(0, 20))
    tail = draw(st.integers(0, 25))
    adjacency = np.zeros((n + tail, n + tail))
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), WEIGHTS)
        for u, v, weight in draw(st.lists(pair, max_size=2 * n)):
            if u != v:
                adjacency[u, v] = adjacency[v, u] = weight
    chain = list(range(n, n + tail))
    if chain and n and draw(st.booleans()):
        chain.insert(0, draw(st.integers(0, n - 1)))
    for u, v in zip(chain, chain[1:]):
        adjacency[u, v] = adjacency[v, u] = draw(WEIGHTS)
    return Graph(adjacency)
