from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margraph import (
    Graph,
    InvalidInputError,
    boundary,
    component_boundaries,
    connectivity_components,
    eliminate_vertex,
    hypergraph_of,
    is_complete,
    joint_table,
    marginal_table,
    marginalize_graph,
    normalized_potential_from_table,
    subgraph,
    varset,
)
from margraph import graph_marginal, graphs

from fixture_models import (
    chain_retained,
    damage_graph,
    damage_retained,
    two_chain_graph,
)
from helpers import (
    induced_scope_graph,
    marginal_graph_by_boundaries,
    random_graph,
    random_normalized_potential,
    reachability_components,
)


class TestTwoChainModel:
    def test_marginal_graph(self):
        _, g = two_chain_graph()
        m = marginalize_graph(g, chain_retained())
        assert m.vertices == (0, 2, 4)
        assert m.edge_list == [(0, 2)]

    def test_marginal_graph_with_existing_chord(self):
        _, g = two_chain_graph(with_chord=True)
        m = marginalize_graph(g, chain_retained())
        assert m.edge_list == [(0, 2)]

    def test_keeping_everything_is_identity(self):
        _, g = two_chain_graph()
        assert marginalize_graph(g, g.vertices) == g


class TestDamageModel:
    def test_single_new_edge(self):
        _, g = damage_graph()
        kept = damage_retained()
        m = marginalize_graph(g, kept)
        extra = set(m.edges) - set(subgraph(g, kept).edges)
        assert extra == {(1, 7)}  # the X2 - X8 fill edge

    def test_components_and_boundaries(self):
        _, g = damage_graph()
        dropped = varset(set(g.vertices) - set(damage_retained()))
        comps = connectivity_components(subgraph(g, dropped))
        assert comps == [(4, 6, 12, 13, 14, 15, 16, 21), (22,)]
        assert boundary(g, comps[0]) == (1, 3, 7)   # X2, X4, X8
        assert boundary(g, comps[1]) == (5,)        # X6


class TestEliminateVertex:
    def test_path_fill_in(self):
        g = Graph.from_edges(range(3), [(0, 1), (1, 2)])
        assert eliminate_vertex(g, 1) == Graph.from_edges((0, 2), [(0, 2)])

    def test_isolated_vertex(self):
        g = Graph.from_edges(range(3), [(0, 1)])
        assert eliminate_vertex(g, 2) == Graph.from_edges((0, 1), [(0, 1)])

    def test_unknown_vertex(self):
        g = Graph.from_edges(range(2), [])
        with pytest.raises(InvalidInputError):
            eliminate_vertex(g, 9)

    def test_fold_equals_marginalize(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n, 0.3)
            a = varset(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            order = [v for v in rng.permutation(n).tolist() if v not in set(a)]
            h = g
            for v in order:
                h = eliminate_vertex(h, v)
            assert h == marginalize_graph(g, a)


class TestInvariants:
    def test_monotone_edge_growth(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n, 0.35)
            a = varset(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            m = marginalize_graph(g, a)
            assert subgraph(g, a).edges <= m.edges

    def test_component_boundaries_complete_in_result(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n, 0.3)
            a = varset(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            m = marginalize_graph(g, a)
            dropped = varset(set(g.vertices) - set(a))
            for comp in connectivity_components(subgraph(g, dropped)):
                assert is_complete(m, boundary(g, comp))

    def test_nesting_consistency(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, 0.3)
            a = varset(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            if not a:
                continue
            b = a[: max(1, len(a) // 2)]
            assert marginalize_graph(marginalize_graph(g, a), b) == marginalize_graph(g, b)

    def test_factorization_soundness_against_oracle(self):
        # the oracle marginal's normalized potential only uses interaction
        # sets that are complete in the marginal graph
        rng = np.random.default_rng(47)
        for _ in range(12):
            n = int(rng.integers(3, 9))
            u = random_normalized_potential(rng, n, max_scope=3)
            g = induced_scope_graph(u)
            a = varset(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())
            m = marginalize_graph(g, a)
            recovered = normalized_potential_from_table(
                marginal_table(joint_table(u), a))
            for scope in hypergraph_of(recovered):
                assert is_complete(m, scope)


@st.composite
def graphs_with_retained_sets(draw):
    """A random graph on up to 40 vertices, from edgeless through sparse
    (many components, isolated vertices) to dense, and a retained set that
    may be empty or everything."""
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.7]))
    g = random_graph(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n, density)
    a = draw(st.one_of(st.just(()), st.just(tuple(range(n))),
                       st.sets(st.integers(0, n - 1)).map(varset)))
    return g, a


class TestAgainstReferences:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_retained_sets())
    def test_matches_boundary_scan_and_vertex_fold(self, case):
        g, a = case
        got = marginalize_graph(g, a)
        assert got == marginal_graph_by_boundaries(g, a)
        dropped = sorted(set(g.vertices) - set(a))
        assert got == reduce(eliminate_vertex, dropped, g)

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_retained_sets())
    def test_component_boundaries_match_per_component_scans(self, case):
        g, a = case
        z = set(g.vertices) - set(a)
        expected = [(comp, boundary(g, comp))
                    for comp in reachability_components(subgraph(g, z))]
        assert component_boundaries(g, z) == expected

    def test_no_adjacency_map_subgraph_or_second_component_finder(self, monkeypatch):
        # the marginal comes from the one shared edge pass alone
        rng = np.random.default_rng(53)
        cases = []
        for n, density in ((12, 0.0), (12, 0.1), (16, 0.3), (8, 0.7)):
            g = random_graph(rng, n, density)
            a = varset(rng.choice(n, size=n // 2, replace=False).tolist())
            cases.append((g, a, marginal_graph_by_boundaries(g, a)))
        _, damage = damage_graph()
        cases.append((damage, damage_retained(),
                      marginal_graph_by_boundaries(damage, damage_retained())))

        def refuse(*args, **kwargs):
            raise AssertionError("marginalize_graph left the shared edge pass")

        monkeypatch.setattr(Graph, "adjacency", refuse)
        for name in ("subgraph", "connectivity_components"):
            monkeypatch.setattr(graphs, name, refuse)
            monkeypatch.setattr(graph_marginal, name, refuse, raising=False)
        for g, a, expected in cases:
            assert marginalize_graph(g, a) == expected
