"""``Graph.shortest_path_lengths`` against the per-source BFS reference.

Generated graphs cover the empty and single-vertex graphs, isolated
vertices, several components, weighted and tiny-weight edges (hop counts
ignore weights) and paths longer than 20 hops. Equality is exact, and the
result keeps the reference's int64 dtype and read-only flag. The DB layer
count built on the distances, and the DB representations, must not move on
any registry dataset either. The graph strategy lives in
``tests/graph_strategies.py`` so other folders' property tests share it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings

from bfs_reference import reference_shortest_path_lengths
from graph_strategies import graphs
from repro.alignment import db_representations
from repro.datasets import DATASET_NAMES, load_dataset
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.ops import disjoint_union, max_shortest_path_length


def _path_with_tiny_weights(n: int) -> Graph:
    adjacency = gen.path_graph(n).adjacency * 1e-11
    return Graph(adjacency)


@settings(max_examples=200, deadline=None)
@given(graph=graphs())
@example(graph=Graph(np.zeros((0, 0))))
@example(graph=Graph(np.zeros((1, 1))))
@example(graph=Graph(np.zeros((4, 4))))
@example(graph=gen.path_graph(30))
@example(graph=_path_with_tiny_weights(23))
@example(graph=disjoint_union([gen.cycle_graph(5), gen.star_graph(4)]))
def test_matches_reference_bfs(graph):
    expected = reference_shortest_path_lengths(graph)
    dist = graph.shortest_path_lengths()
    assert dist.dtype == np.int64
    assert not dist.flags.writeable
    assert dist.shape == expected.shape
    assert np.array_equal(dist, expected)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_registry_layer_count_and_db_representations_unchanged(name, monkeypatch):
    dataset = load_dataset(name, scale=0.01, size_scale=0.1, seed=0)
    graphs = dataset.graphs[:6]
    n_layers = max_shortest_path_length(graphs)
    compiled = [db_representations(g, n_layers) for g in graphs]

    monkeypatch.setattr(Graph, "shortest_path_lengths", reference_shortest_path_lengths)
    fresh = [Graph(g.adjacency, labels=g.labels) for g in graphs]
    assert max_shortest_path_length(fresh) == n_layers
    for graph, representations in zip(fresh, compiled):
        assert db_representations(graph, n_layers).tobytes() == representations.tobytes()
