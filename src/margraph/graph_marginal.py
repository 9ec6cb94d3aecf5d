"""Marginalization operator for undirected graphs.

Dropping the variables outside a retained set A turns each connectivity
component of the eliminated subgraph into a completed boundary: the marginal
distribution of A factorizes according to the subgraph on A plus those
fill-in edges.  The operator returns this graph exactly as constructed,
never pruned; it may keep edges a finer (hypergraph) analysis would remove.

The components and their boundaries come from
:func:`~margraph.graphs.component_boundaries`, one adjacency pass per call,
the same split the hypergraph plan uses.  The finer routes put their new
structure on the same boundaries: innovations on boundary subsets for
potentials, and for a Gaussian an innovation matrix summed over the
components, each term supported on its component's boundary.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .graphs import Graph, completed_edge_set, component_boundaries, subgraph, varset


def marginalize_graph(g: Graph, a) -> Graph:
    """Marginal graph on ``a``: subgraph edges plus completed component boundaries.

    The eliminated set V \\ a is split into connectivity components; the
    boundary of each component (taken in ``g``) is completed.  The result's
    edge set always contains the subgraph edges on ``a``.
    """
    a = varset(a)
    kept = subgraph(g, a)  # validates a against g.vertices
    dropped = set(g.vertices) - set(a)
    if not dropped:
        return kept
    fill = set(kept.edges)
    for _, d in component_boundaries(g, dropped):
        fill |= completed_edge_set(d)
    return Graph._of(a, frozenset(fill))


def eliminate_vertex(g: Graph, v: int) -> Graph:
    """Remove ``v`` after completing its neighborhood (single fill-in step).

    Folding this over all of V \\ a, in any order, reproduces
    :func:`marginalize_graph`.
    """
    if v not in set(g.vertices):
        raise InvalidInputError(f"unknown vertex id {v}")
    rest = varset(set(g.vertices) - {v})
    fill = completed_edge_set(g.neighbors(v))
    kept = frozenset(e for e in g.edges if v not in e)
    return Graph._of(rest, kept | fill)
