"""The one component-and-boundary pass of the numpy routes.

:func:`margraph.components.eliminated_components` is checked against the
graph operator's depth-first search in plain Python, and the elimination
plan and the Gaussian innovation matrix must each find their components and
boundaries through it: the plan once per build, the matrix once per call.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from margraph import Graph, component_boundaries, gaussian, hypergraph_marginal
from margraph.components import eliminated_components

from fixture_models import (
    chain_potential,
    chain_retained,
    damage_gaussian,
    damage_retained,
    grid_potential,
    grid_retained,
)
from helpers import build_plan


def by_search(n, pairs, mask):
    """What :func:`eliminated_components` returns, from
    :func:`margraph.component_boundaries` on the graph of ``pairs``."""
    g = Graph.from_edges(range(n), {(min(e), max(e)) for e in pairs if e[0] != e[1]})
    found = component_boundaries(g, [v for v in range(n) if mask[v]])
    comp = [-1] * n
    for c, (tau, _) in enumerate(found):
        for v in tau:
            comp[v] = c
    return (comp, [v for tau, _ in found for v in tau], [len(tau) for tau, _ in found],
            [(c, b) for c, (_, bd) in enumerate(found) for b in bd])


@st.composite
def edge_lists_with_masks(draw):
    """0-30 vertices, edges drawn with loops and repeats, and any mask."""
    n = draw(st.integers(0, 30))
    pairs = [] if n == 0 else draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    mask = draw(st.one_of(st.just([False] * n), st.just([True] * n),
                          st.lists(st.booleans(), min_size=n, max_size=n)))
    return n, pairs, mask


@settings(max_examples=300, deadline=None)
@given(edge_lists_with_masks())
@example((0, [], []))
@example((4, [(0, 1), (1, 2), (2, 3)], [False] * 4))  # nothing eliminated
@example((4, [(0, 1), (1, 2), (2, 3)], [True] * 4))  # everything eliminated: no boundary
@example((5, [(0, 0), (3, 3), (0, 1)], [True, False, True, True, False]))  # loops, isolated ones
@example((4, [(1, 0), (0, 1), (1, 0), (2, 1), (1, 2)], [False, True, False, True]))  # repeats
def test_matches_the_depth_first_search(case):
    n, pairs, mask = case
    u = np.array([p[0] for p in pairs], dtype=np.intp)
    v = np.array([p[1] for p in pairs], dtype=np.intp)
    comp, members, sizes, (owner, bd) = eliminated_components(n, u, v, np.array(mask, dtype=bool))
    got = (comp.tolist(), members.tolist(), sizes.tolist(), list(zip(owner.tolist(), bd.tolist())))
    assert got == by_search(n, pairs, mask)


def test_isolated_eliminated_vertices_have_an_empty_boundary():
    # 1 and 3 touch no edge; 0-2 touch 4 and 5
    u, v = np.array([0, 2, 2]), np.array([4, 0, 5])
    comp, members, sizes, (owner, bd) = eliminated_components(
        6, u, v, np.array([True, True, True, True, False, False]))
    assert comp.tolist() == [0, 1, 0, 2, -1, -1]
    assert members.tolist() == [0, 2, 1, 3] and sizes.tolist() == [2, 1, 1]
    assert list(zip(owner.tolist(), bd.tolist())) == [(0, 4), (0, 5)]


class TestOnePassPerRoute:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def count(*args):
            calls.append(args[0])
            return eliminated_components(*args)

        for module in (hypergraph_marginal, gaussian):
            monkeypatch.setattr(module, "eliminated_components", count)
        return calls

    def test_the_plan_calls_the_shared_pass_once(self, calls):
        assert not hasattr(hypergraph_marginal, "adjacency")
        assert not hasattr(hypergraph_marginal, "component_labels")
        for u, a, count in ((chain_potential(1.0, 1.0, 1.0, 1.0), chain_retained(), 3),
                            (grid_potential(), grid_retained(), 1)):  # a lone component
            del calls[:]
            plan = build_plan([u], a)
            assert calls == [len(u.vars) + 1]  # the pad slot is a kept vertex
            assert len(plan.components) == count

    def test_gamma_calls_the_shared_pass_once(self, calls, monkeypatch):
        m = damage_gaussian()  # the constructor's proof labels P; Γ must not

        def refuse(*args, **kwargs):
            raise AssertionError("Γ labelled components outside the shared pass")

        for name in ("adjacency", "component_labels"):
            monkeypatch.setattr(gaussian, name, refuse)
        gaussian._gamma(m, damage_retained())
        assert calls == [m.n]
