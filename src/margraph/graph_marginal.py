"""Marginalization operator for undirected graphs.

Dropping the variables outside a retained set A turns each connectivity
component of the eliminated subgraph into a completed boundary: the marginal
distribution of A factorizes according to the subgraph on A plus those
fill-in edges.  The operator returns this graph exactly as constructed,
never pruned; it may keep edges a finer (hypergraph) analysis would remove.

The kept edges, the components and their boundaries come from one walk
over the edges, the pass behind :func:`~margraph.graphs.component_boundaries`.
The finer routes put their new structure on the same boundaries: innovations
on boundary subsets for potentials, and for a Gaussian an innovation matrix
summed over the components, each term supported on its component's boundary.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, _edge_pass, _require_subset, boundary, completed_edge_set, varset


def marginalize_graph(g: Graph, a) -> Graph:
    """Marginal graph on ``a``: the subgraph edges on ``a`` plus the
    completed boundary (taken in ``g``) of each connectivity component of
    the eliminated set V \\ a."""
    a = _require_subset(g, a)
    inside = set(a)
    kept, pairs = _edge_pass(g, tuple(v for v in g.vertices if v not in inside))
    return Graph._of(a, frozenset(kept).union(
        *(combinations(d, 2) for _, d in pairs if len(d) > 1)))


def eliminate_vertex(g: Graph, v: int) -> Graph:
    """Remove ``v`` after completing its neighborhood (single fill-in step).

    Folding this over all of V \\ a, in any order, reproduces
    :func:`marginalize_graph`.
    """
    fill = completed_edge_set(boundary(g, (v,)))  # validates v
    rest = varset(set(g.vertices) - {v})
    kept = frozenset(e for e in g.edges if v not in e)
    return Graph._of(rest, kept | fill)
