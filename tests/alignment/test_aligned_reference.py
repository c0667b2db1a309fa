"""The aligner's aligned matrices against the dense construction (Eq. 19-25).

``HierarchicalAligner.transform`` builds every aligned matrix by scatter
(:func:`repro.alignment.transform.hierarchical_aligned`); no correspondence
matrix is formed. The oracle spells the paper's construction out with the
public dense functions, per graph and level h:

    (1/K) Σ_k aligned_x(source, one_hot(lift(a_k, h)))

where ``a_k`` is the graph's level-1 assignment in DB dimension k. Both
sides share the fitted prototype system, so the check is on the apply step
alone. Adjacencies with integer weights are sums of integers and must come
out bit-equal; densities must agree within ``DENSITY_TOL``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels.haqjsk as haqjsk
from graph_strategies import graphs as graph_strategy
from repro.alignment import aligned_adjacency, aligned_density, one_hot
from repro.datasets import load_dataset
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.kernels.haqjsk import HierarchicalAligner
from repro.kernels.haqjsk_attributed import attributed_aligner
from repro.quantum.density import graph_density_matrix

DENSITY_TOL = 1e-12
STRUCTURES = ("adjacency", "density")


def _slice(representation, k, system):
    """First k DB columns plus the static (label) tail, as Eq. 12 slices."""
    head = representation[:, :k]
    if not system.n_static:
        return head
    return np.hstack([head, representation[:, system.n_layers:]])


def dense_reference(aligner, system, representations, graphs, structure,
                    density=graph_density_matrix):
    """Eq. 22-25 from one-hot correspondences and dense congruences."""
    out = []
    for graph, representation in zip(graphs, representations):
        if structure == "density":
            source = density(graph, hamiltonian=aligner.hamiltonian)
        else:
            source = graph.adjacency
        level1 = [
            hierarchy.assign_level1(_slice(representation, k, system))
            for k, hierarchy in enumerate(system.hierarchies, start=1)
        ]
        levels = []
        for level in range(1, system.hierarchies[0].n_levels + 1):
            total = 0.0
            for assignment, hierarchy in zip(level1, system.hierarchies):
                c = one_hot(hierarchy.lift_assignment(assignment, level),
                            hierarchy.size(level))
                if structure == "density":
                    total = total + aligned_density(
                        source, c, renormalize=aligner.renormalize_density)
                else:
                    total = total + aligned_adjacency(source, c)
            levels.append(total / system.n_layers)
        out.append(levels)
    return out


def unfrozen_reference(aligner, graphs, structure, **kwargs):
    """The reference on the system an unfrozen ``transform`` fits."""
    system, representations = aligner._fit_system(graphs)
    return dense_reference(aligner, system, representations, graphs, structure,
                           **kwargs)


def assert_matches(got, want, structure):
    assert len(got) == len(want)
    for got_levels, want_levels in zip(got, want):
        assert len(got_levels) == len(want_levels)
        for g, w in zip(got_levels, want_levels):
            assert g.shape == w.shape
            assert np.array_equal(g, g.T)  # the pair stage skips symmetrising
            if structure == "adjacency":
                assert np.array_equal(g, w)
            else:
                assert np.abs(g - w).max() <= DENSITY_TOL


def _with_isolated(graph, extra):
    """``graph`` plus ``extra`` isolated vertices."""
    n = graph.n_vertices
    adjacency = np.zeros((n + extra, n + extra))
    adjacency[:n, :n] = graph.adjacency
    return Graph(adjacency)


def _integer_weighted(n, seed):
    rng = np.random.default_rng(seed)
    weights = np.triu(rng.integers(0, 5, size=(n, n)), 1).astype(float)
    return Graph(weights + weights.T)


def _mixed():
    return (
        [gen.random_tree(10, seed=i) for i in range(3)]
        + [gen.erdos_renyi(11, 0.4, seed=i).largest_component() for i in range(3)]
        + [gen.barabasi_albert(12, 2, seed=i) for i in range(3)]
    )


def _duplicated():
    base = gen.barabasi_albert(9, 2, seed=7)
    order = np.random.default_rng(7).permutation(base.n_vertices)
    return [base, base, Graph(base.adjacency), base.permuted(order),
            gen.random_tree(8, seed=1), gen.cycle_graph(7)]


#: (case id, aligner keyword arguments, collection factory).
CASES = [
    ("mixed", {}, _mixed),
    ("single-vertex", {}, lambda: [Graph(np.zeros((1, 1))), gen.path_graph(3),
                                   gen.star_graph(5), gen.cycle_graph(4)]),
    ("isolated-vertices", {}, lambda: [_with_isolated(gen.path_graph(4), 3),
                                       _with_isolated(gen.star_graph(5), 1),
                                       gen.empty_graph(3), gen.cycle_graph(6)]),
    ("larger-than-prototypes", {"n_prototypes": 4},
     lambda: [gen.barabasi_albert(20, 2, seed=i) for i in range(3)]
     + [gen.random_tree(16, seed=3)]),
    ("one-prototype", {"n_prototypes": 1},
     lambda: [gen.cycle_graph(5), gen.path_graph(4), gen.star_graph(6)]),
    ("vertex-transitive", {},
     lambda: [gen.cycle_graph(6), gen.cycle_graph(6), gen.complete_graph(5)]),
    ("duplicates-relabelled", {}, _duplicated),
    ("integer-weighted", {}, lambda: [_integer_weighted(n, n) for n in (5, 8, 11, 14)]),
    ("no-renormalise", {"renormalize_density": False}, _mixed),
    ("independent-k", {"consistent_across_k": False}, _mixed),
    ("normalised-laplacian", {"hamiltonian": "normalized_laplacian"}, _mixed),
    ("adjacency-hamiltonian", {"hamiltonian": "adjacency"}, _mixed),
]


def _aligner(**kwargs):
    options = {"n_prototypes": 8, "n_levels": 3, "max_layers": 4, "seed": 0}
    options.update(kwargs)
    return HierarchicalAligner(**options)


class TestUnfrozen:
    @pytest.mark.parametrize("structure", STRUCTURES)
    @pytest.mark.parametrize("case, kwargs, make", CASES, ids=[c[0] for c in CASES])
    def test_matches_dense_reference(self, case, kwargs, make, structure):
        graphs = make()
        got = _aligner(**kwargs).transform(graphs, structure)
        want = unfrozen_reference(_aligner(**kwargs), graphs, structure)
        assert_matches(got, want, structure)

    def test_vertex_transitive_graphs_sit_on_one_prototype(self):
        """Every vertex of a vertex-transitive graph has one representation,
        so its level-1 aligned adjacency has a single non-zero entry."""
        graphs = [gen.cycle_graph(6), gen.complete_graph(5)]
        for levels, graph in zip(_aligner().transform(graphs, "adjacency"), graphs):
            assert np.count_nonzero(levels[0]) == 1
            assert levels[0].sum() == graph.adjacency.sum()

    def test_duplicates_and_relabellings_align_identically(self):
        graphs = _duplicated()
        levels = _aligner().transform(graphs, "adjacency")
        for copy in levels[1:4]:
            for a, b in zip(levels[0], copy):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_attributed_aligner(self, structure):
        graphs = [gen.attach_random_labels(g, 3, seed=i)
                  for i, g in enumerate(_mixed())]
        options = {"n_prototypes": 8, "n_levels": 3, "max_layers": 4, "radius": 1}
        got = attributed_aligner(**options).transform(graphs, structure)
        reference = attributed_aligner(**options)
        system, _ = reference._fit_system(graphs)
        assert system.n_static > 0
        assert_matches(got, unfrozen_reference(reference, graphs, structure), structure)

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_benchmark_collection_at_256_prototypes(self, structure):
        graphs = list(load_dataset("MUTAG", scale=0.25, seed=0).graphs)
        kwargs = {"n_prototypes": 256, "n_levels": 5, "max_layers": 6}
        got = _aligner(**kwargs).transform(graphs, structure)
        assert_matches(got, unfrozen_reference(_aligner(**kwargs), graphs, structure),
                       structure)

    def test_zero_trace_density_takes_the_identity_fallback(self, monkeypatch):
        """Vertices 0 and 2 of a 3-path are automorphic, so they share a
        prototype at every level and in every dimension; a density that
        is ``(e0 - e2)(e0 - e2)ᵀ / 2`` on it then sums to zero over every
        prototype, and each aligned density is the identity over its size."""
        path = gen.path_graph(3)
        crafted = np.zeros((3, 3))
        crafted[np.ix_([0, 2], [0, 2])] = [[0.5, -0.5], [-0.5, 0.5]]
        real = haqjsk.graph_density_matrix

        def density(graph, **kwargs):
            return crafted if graph is path else real(graph, **kwargs)

        monkeypatch.setattr(haqjsk, "graph_density_matrix", density)
        graphs = [path, gen.star_graph(5), gen.cycle_graph(4)]
        got = _aligner().transform(graphs, "density")
        want = unfrozen_reference(_aligner(), graphs, "density", density=density)
        assert_matches(got, want, "density")
        for matrix in got[0]:
            m = matrix.shape[0]
            assert np.abs(matrix - np.eye(m) / m).max() <= DENSITY_TOL


class TestFrozen:
    @pytest.mark.parametrize("structure", STRUCTURES)
    @pytest.mark.parametrize("attributed", [False, True])
    def test_newcomers_match_dense_reference(self, structure, attributed):
        reference_graphs = _mixed()
        newcomers = [Graph(np.zeros((1, 1))), gen.barabasi_albert(25, 3, seed=9),
                     _with_isolated(gen.cycle_graph(5), 2), _integer_weighted(7, 3)]
        if attributed:
            reference_graphs = [gen.attach_random_labels(g, 3, seed=i)
                                for i, g in enumerate(reference_graphs)]
            newcomers = [gen.attach_random_labels(g, 4, seed=i)
                         for i, g in enumerate(newcomers)]
            aligner = attributed_aligner(n_prototypes=8, n_levels=3, max_layers=4)
        else:
            aligner = _aligner()
        aligner.fit(reference_graphs)
        system = aligner.frozen_
        representations = [aligner._quantized(system.extractor.transform(g))
                           for g in newcomers]
        got = aligner.transform(newcomers, structure)
        want = dense_reference(aligner, system, representations, newcomers, structure)
        assert_matches(got, want, structure)


def _is_integer_weighted(graph):
    return np.array_equal(graph.adjacency, np.round(graph.adjacency))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(collection=st.lists(graph_strategy().filter(lambda g: g.n_vertices > 0),
                           min_size=1, max_size=4),
       n_prototypes=st.sampled_from([1, 3, 8]))
def test_generated_collections(collection, n_prototypes):
    """Generated graphs (isolated vertices, chains, tiny and fractional
    weights): densities within the tier, and adjacencies bit-equal when
    every weight is an integer, within 1e-12 of their scale otherwise
    (float weights add in another order)."""
    aligner = _aligner(n_prototypes=n_prototypes, n_levels=2)
    for structure in STRUCTURES:
        got = aligner.transform(collection, structure)
        want = unfrozen_reference(aligner, collection, structure)
        if structure == "density":
            assert_matches(got, want, structure)
            continue
        for graph, got_levels, want_levels in zip(collection, got, want):
            scale = max(1.0, float(graph.adjacency.sum()))
            for g, w in zip(got_levels, want_levels):
                assert np.array_equal(g, g.T)
                if _is_integer_weighted(graph):
                    assert np.array_equal(g, w)
                else:
                    assert np.abs(g - w).max() <= 1e-12 * scale
