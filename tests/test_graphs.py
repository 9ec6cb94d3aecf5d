import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from margraph import (
    GaussianModel,
    Graph,
    Hypergraph,
    InvalidInputError,
    Variables,
    boundary,
    cliques,
    completed_edge_set,
    connectivity_components,
    eliminate_vertex,
    induced_graph,
    is_complete,
    marginalize_graph,
    pattern_graph,
    subgraph,
    varset,
)

from margraph.components import adjacency, component_labels

from fixture_models import ten_vertex_graph
from helpers import brute_force_cliques, neighbor_scan, random_graph, reachability_components


@st.composite
def clique_search_graphs(draw):
    """0 to 13 vertices at densities 0 to 0.7, or complete: isolated
    vertices, complete graphs, and sparse graphs whose search ends branches
    on a vertex with no candidates left."""
    n = draw(st.integers(0, 13))
    density = draw(st.sampled_from([0.0, 0.1, 0.2, 0.35, 0.5, 0.7, 1.0]))
    return random_graph(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n, density)


@pytest.fixture
def g10():
    return ten_vertex_graph()[1]


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(range(n), [p for p, m in zip(pairs, mask) if m])


class TestVariables:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            Variables(["A", "A"])

    def test_domain_must_contain_zero(self):
        with pytest.raises(InvalidInputError):
            Variables(["A"], [[1.0, 2.0]])

    def test_subset_lists_unknown_labels(self):
        v = Variables(["A", "B"])
        with pytest.raises(InvalidInputError, match="'C'"):
            v.subset(["A", "C"])


class TestGraphType:
    def test_edges_canonicalized(self):
        g = Graph.from_edges([0, 1, 2], [(2, 0), (1, 0)])
        assert g.edge_list == [(0, 1), (0, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInputError):
            Graph.from_edges([0, 1], [(1, 1)])

    def test_edge_outside_vertices_rejected(self):
        with pytest.raises(InvalidInputError):
            Graph(varset([0, 1]), frozenset({(0, 5)}))
        with pytest.raises(InvalidInputError, match="outside the graph"):
            Graph.from_edges([0, 1], [(0, 5)])

    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.data())
    def test_engine_built_graphs_equal_fully_validated_ones(self, g, data):
        # subgraph, the graph operators, induced_graph and the Gaussian
        # pattern build their graphs unchecked; the checked constructor
        # must accept each one as it is
        a = data.draw(st.sets(st.sampled_from(g.vertices)))
        prec = np.eye(len(g.vertices)) * (len(g.edges) + 1.0)
        for x, y in g.edges:
            prec[x, y] = prec[y, x] = data.draw(st.sampled_from([-0.5, 0.25]))
        built = [subgraph(g, a), marginalize_graph(g, a), eliminate_vertex(g, g.vertices[0]),
                 induced_graph(Hypergraph(cliques(g)), g.vertices),
                 pattern_graph(GaussianModel(np.zeros(len(g.vertices)), prec))]
        assert built[-1] == g and built[-2] == g
        for h in built:
            assert h == Graph(h.vertices, h.edges)
            assert all(type(v) is int for e in h.edges for v in e)
            assert all(type(v) is int for v in h.vertices)


class TestBoundary:
    def test_four_clique_boundary(self, g10):
        # boundary of {V1,V3,V4,V5} is {V2,V6}
        assert boundary(g10, (0, 2, 3, 4)) == (1, 5)

    def test_whole_vertex_set_has_empty_boundary(self, g10):
        assert boundary(g10, g10.vertices) == ()

    def test_singletons_match_edge_scan(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 10, 0.35)
        for v in g.vertices:
            assert boundary(g, (v,)) == neighbor_scan(g, v)

    def test_unknown_vertex_rejected(self, g10):
        with pytest.raises(InvalidInputError):
            boundary(g10, (0, 99))

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_disjoint_from_input(self, g):
        a = g.vertices[::2]
        assert not set(boundary(g, a)) & set(a)


class TestConnectivityComponents:
    def test_two_components(self, g10):
        assert connectivity_components(g10) == [(0, 1, 2, 3, 4, 5), (6, 7, 8, 9)]

    def test_edgeless_graph_gives_singletons(self):
        g = Graph.from_edges(range(5), [])
        assert connectivity_components(g) == [(k,) for k in range(5)]

    def test_matches_reachability_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(1, 12)), 0.2)
            assert connectivity_components(g) == reachability_components(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_partition(self, g):
        parts = connectivity_components(g)
        flat = [v for p in parts for v in p]
        assert sorted(flat) == list(g.vertices)
        assert len(flat) == len(set(flat))


class TestSubgraph:
    def test_four_vertex_subgraph(self, g10):
        # subgraph on {V2,V4,V5,V6} keeps (V2,V4),(V4,V5),(V4,V6)
        s = subgraph(g10, (1, 3, 4, 5))
        assert s.vertices == (1, 3, 4, 5)
        assert s.edge_list == [(1, 3), (3, 4), (3, 5)]

    def test_empty_subset(self, g10):
        s = subgraph(g10, ())
        assert s.vertices == () and not s.edges

    def test_full_subset_is_identity(self, g10):
        assert subgraph(g10, g10.vertices) == g10

    @settings(max_examples=60, deadline=None)
    @given(graphs(), st.integers(0, 2 ** 9 - 1))
    def test_nesting(self, g, bits):
        a = varset(v for v in g.vertices if bits >> v & 1)
        b = a[: len(a) // 2]
        assert subgraph(subgraph(g, a), b) == subgraph(g, b)


class TestCompletedEdgeSet:
    def test_triple(self):
        assert completed_edge_set((6, 7, 8)) == {(6, 7), (6, 8), (7, 8)}

    def test_singleton(self):
        assert completed_edge_set((3,)) == frozenset()

    def test_binomial_count(self):
        assert len(completed_edge_set(range(5))) == 10


class TestIsComplete:
    def test_four_clique(self, g10):
        assert is_complete(g10, (0, 2, 3, 4))

    def test_empty_and_singletons(self, g10):
        assert is_complete(g10, ())
        assert all(is_complete(g10, (v,)) for v in g10.vertices)

    def test_missing_edge(self, g10):
        assert not is_complete(g10, (6, 7))


class TestCliques:
    def test_ten_vertex_cliques(self, g10):
        assert cliques(g10) == [
            (0, 2, 3, 4), (1, 3), (3, 5), (6, 8), (6, 9), (7, 9)]

    def test_complete_graph_single_clique(self):
        g = Graph.from_edges(range(6), completed_edge_set(range(6)))
        assert cliques(g) == [tuple(range(6))]

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(1, 13)), 0.4)
            assert cliques(g) == brute_force_cliques(g)

    def test_a_graph_with_no_vertices_has_no_cliques(self):
        g = Graph.from_edges((), [])
        assert cliques(g) == brute_force_cliques(g) == []

    @settings(max_examples=150, deadline=None)
    @given(clique_search_graphs())
    # isolated vertices beside a triangle; a complete graph; and two
    # disjoint edges, where the search reaches vertex 3 with no candidates
    # left and 2 in X ∩ N(3), a dead branch
    @example(Graph.from_edges(range(5), [(0, 1), (0, 2), (1, 2)]))
    @example(Graph.from_edges(range(5), completed_edge_set(range(5))))
    @example(Graph.from_edges(range(4), [(0, 1), (2, 3)]))
    def test_matches_subset_enumeration_up_to_13_vertices(self, g):
        assert cliques(g) == brute_force_cliques(g)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=8))
    def test_maximal_and_complete(self, g):
        for c in cliques(g):
            assert is_complete(g, c)
            outside = set(g.vertices) - set(c)
            assert not any(is_complete(g, varset(set(c) | {v})) for v in outside)


def test_operations_are_deterministic(g10):
    assert cliques(g10) == cliques(g10)
    assert connectivity_components(g10) == connectivity_components(g10)
    assert boundary(g10, (0, 2)) == boundary(g10, (2, 0))


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=14), st.integers(0, 3), st.randoms(use_true_random=False))
def test_numpy_component_finder_matches_connectivity_components(g, isolated, random):
    # ``isolated`` vertices join after the graph's own; edges come in any
    # order and either direction
    n = len(g.vertices) + isolated
    edges = [(b, a) if random.random() < 0.5 else (a, b) for a, b in g.edges]
    random.shuffle(edges)
    u = np.array([a for a, _ in edges], dtype=np.intp)
    v = np.array([b for _, b in edges], dtype=np.intp)
    expected = [0] * n
    for part in connectivity_components(Graph.from_edges(range(n), g.edges)):
        for x in part:
            expected[x] = part[0]
    assert component_labels(adjacency(n, u, v)).tolist() == expected
