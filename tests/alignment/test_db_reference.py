"""Shannon DB representations against the distance-mask reference.

The library grows layer ``l + 1``'s member mask from layer ``l``'s own
product and stops once the mask saturates; ``fit_transform`` takes ``K`` as
the deepest saturation level, capped at ``max_layers``. The reference in
``db_reference.py`` cuts every layer out of the hop distances and takes
``K`` from ``max_shortest_path_length``. Representations and ``K`` must
match it byte for byte: for ``fit_transform`` on generated collections and
the registry datasets, and for the frozen ``transform`` at ``K`` below, at
and above each graph's greatest hop distance. A guard runs the Shannon
path with ``Graph.shortest_path_lengths`` patched to raise.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from db_reference import reference_layer_count, reference_shannon_db
from graph_strategies import graphs
from repro.alignment.depth_based import (
    DBRepresentationExtractor,
    _shannon_layers,
    db_representations,
)
from repro.datasets import DATASET_NAMES, load_dataset
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.ops import disjoint_union


def _fresh(graph: Graph) -> Graph:
    """A copy without memoised hop distances."""
    return Graph(graph.adjacency, labels=graph.labels)


def _greatest_hop(graph: Graph) -> int:
    distances = graph.shortest_path_lengths()
    return int(distances.max()) if distances.size else 0


def _frozen(n_layers: int) -> DBRepresentationExtractor:
    """An extractor whose ``K`` was fitted on a path of diameter ``n_layers``."""
    extractor = DBRepresentationExtractor(max_layers=100)
    extractor.fit_transform([gen.path_graph(n_layers + 1)])
    assert extractor.n_layers_ == n_layers
    return extractor


def _assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_fit_transform_matches(collection, max_layers: int) -> None:
    extractor = DBRepresentationExtractor(max_layers=max_layers)
    representations = extractor.fit_transform(collection)
    n_layers = reference_layer_count([_fresh(g) for g in collection], max_layers)
    assert extractor.n_layers_ == n_layers
    # fit on its own still reads hop distances; it must pick the same K.
    fitted = DBRepresentationExtractor(max_layers=max_layers).fit(collection)
    assert fitted.n_layers_ == n_layers
    for graph, representation in zip(collection, representations):
        _assert_same_bytes(representation, reference_shannon_db(_fresh(graph), n_layers))


def _assert_frozen_transform_matches(graph: Graph) -> None:
    depth = max(1, _greatest_hop(graph))
    for n_layers in sorted({max(1, depth - 2), max(1, depth - 1), depth, depth + 1, depth + 5}):
        _assert_same_bytes(
            _frozen(n_layers).transform(graph), reference_shannon_db(_fresh(graph), n_layers)
        )


def _tiny_weight_path(n: int) -> Graph:
    return Graph(gen.path_graph(n).adjacency * 1e-11)


SPECIAL_GRAPHS = [
    Graph(np.zeros((0, 0))),
    Graph(np.zeros((1, 1))),
    Graph(np.zeros((4, 4))),
    gen.path_graph(30),
    _tiny_weight_path(23),
    disjoint_union([gen.cycle_graph(5), gen.star_graph(4)]),
]


@settings(max_examples=100, deadline=None)
@given(
    collection=st.lists(graphs(), min_size=1, max_size=4),
    max_layers=st.integers(1, 30),
)
@example(collection=SPECIAL_GRAPHS, max_layers=10)
@example(collection=SPECIAL_GRAPHS, max_layers=40)
@example(collection=[Graph(np.zeros((0, 0)))], max_layers=3)
def test_fit_transform_matches_reference(collection, max_layers):
    _assert_fit_transform_matches(collection, max_layers)


@settings(max_examples=100, deadline=None)
@given(graph=graphs())
@example(graph=gen.path_graph(30))
@example(graph=_tiny_weight_path(23))
@example(graph=disjoint_union([gen.cycle_graph(5), gen.star_graph(4)]))
def test_frozen_transform_matches_reference(graph):
    _assert_frozen_transform_matches(graph)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_registry_datasets_match_reference(name):
    collection = load_dataset(name, scale=0.01, size_scale=0.1, seed=0).graphs[:6]
    for max_layers in (2, 10):
        _assert_fit_transform_matches(collection, max_layers)
    for graph in collection[:2]:
        _assert_frozen_transform_matches(graph)


def test_layers_stop_at_saturation():
    """One product per layer up to the greatest hop distance, no more."""
    assert _shannon_layers(gen.path_graph(7).adjacency, 10).shape == (7, 6)
    assert _shannon_layers(gen.path_graph(7).adjacency, 4).shape == (7, 4)
    assert _shannon_layers(gen.complete_graph(5).adjacency, 10).shape == (5, 1)
    assert _shannon_layers(np.zeros((3, 3)), 10).shape == (3, 1)


def test_shannon_path_reads_no_hop_distances(monkeypatch, mixed_collection):
    def refuse(self):
        raise AssertionError("the Shannon DB path read hop distances")

    collection = [_fresh(g) for g in mixed_collection]
    monkeypatch.setattr(Graph, "shortest_path_lengths", refuse)
    extractor = DBRepresentationExtractor(max_layers=6)
    representations = extractor.fit_transform(collection)
    assert len(representations) == len(collection)
    for graph in collection:
        extractor.transform(graph)
        db_representations(graph, 3)
