"""Undirected graphs over an indexed variable registry, and the set
primitives (boundary, components, subgraph, completion, cliques) the
marginalization operators are built from.

Variables are referred to by dense integer ids; human-readable labels and
finite domains live in a :class:`Variables` registry so that graphs,
potentials and Gaussian models can share one naming scheme.  All values are
immutable after construction and every operation returns canonically ordered
results (vertices ascending, edges as (min, max) pairs, vertex sets sorted),
so identical inputs always produce identical, identically ordered outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InvalidInputError

# A variable set is always a sorted, duplicate-free tuple of ids.
VarSet = tuple[int, ...]

Edge = tuple[int, int]

DEFAULT_DOMAIN = (0.0, 1.0)


def varset(items: Iterable[int]) -> VarSet:
    """Canonical variable set: sorted tuple of distinct ids."""
    return tuple(sorted(set(items)))


class Variables:
    """Registry of model variables.

    Ids are dense 0..n-1, labels are unique, and every variable carries a
    finite domain of distinct reals that contains 0 (the anchor value used
    when normalizing potentials).  The default domain is {0, 1}.
    """

    __slots__ = ("labels", "domains", "_index", "_zero")

    def __init__(self, labels: Sequence[str], domains: Sequence[Sequence[float]] | None = None):
        labels = tuple(str(lbl) for lbl in labels)
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise InvalidInputError(f"duplicate variable labels: {dup}")
        if domains is None:
            domains = [DEFAULT_DOMAIN] * len(labels)
        if len(domains) != len(labels):
            raise InvalidInputError(
                f"{len(labels)} labels but {len(domains)} domains")
        canon = []
        zero = []
        for k, dom in enumerate(domains):
            vals = tuple(float(v) for v in dom)
            if len(set(vals)) != len(vals):
                raise InvalidInputError(f"domain of {labels[k]!r} has repeated values")
            if len(vals) < 2:
                raise InvalidInputError(f"domain of {labels[k]!r} needs at least two values")
            zeros = [i for i, v in enumerate(vals) if v == 0.0]
            if len(zeros) != 1:
                raise InvalidInputError(f"domain of {labels[k]!r} must contain 0 exactly once")
            canon.append(vals)
            zero.append(zeros[0])
        self.labels = labels
        self.domains = tuple(canon)
        self._index = {lbl: i for i, lbl in enumerate(labels)}
        self._zero = tuple(zero)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Variables):
            return NotImplemented
        return self.labels == other.labels and self.domains == other.domains

    def __hash__(self) -> int:
        return hash((self.labels, self.domains))

    def __repr__(self) -> str:
        return f"Variables({list(self.labels)!r})"

    def all_ids(self) -> VarSet:
        return tuple(range(len(self.labels)))

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidInputError(f"unknown variable label {label!r}") from None

    def domain(self, i: int) -> tuple[float, ...]:
        return self.domains[i]

    def zero_index(self, i: int) -> int:
        """Position of the value 0 in variable i's domain."""
        return self._zero[i]

    @property
    def zero_indices(self) -> tuple[int, ...]:
        """Position of the value 0 in each variable's domain, in id order."""
        return self._zero

    def sizes(self, scope: Iterable[int]) -> tuple[int, ...]:
        return tuple(len(self.domains[i]) for i in scope)

    def subset(self, labels: Iterable[str]) -> VarSet:
        """Resolve labels to a canonical id set; unknown labels are listed."""
        unknown = [l for l in labels if l not in self._index]
        if unknown:
            raise InvalidInputError(f"unknown variable labels: {unknown}")
        return varset(self._index[l] for l in labels)


def _canonical_edge(a: int, b: int) -> Edge:
    if a == b:
        raise InvalidInputError(f"self-loop on vertex {a}")
    return (a, b) if a < b else (b, a)


def _checked_edges(vs: VarSet, edges) -> frozenset[Edge]:
    """``edges`` as (min, max) int pairs, each checked to join two
    distinct vertices of ``vs``."""
    vset = set(vs)
    canon = set()
    for e in edges:
        a, b = e
        a, b = int(a), int(b)
        if a not in vset or b not in vset:
            raise InvalidInputError(f"edge {e} uses a vertex outside the graph")
        canon.add(_canonical_edge(a, b))
    return frozenset(canon)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``vertices`` is a sorted id tuple (possibly a subset of a registry's
    ids, e.g. after taking a subgraph); ``edges`` stores each edge once in
    (min, max) order.
    """

    vertices: VarSet
    edges: frozenset[Edge]

    def __post_init__(self):
        vs = varset(self.vertices)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", _checked_edges(vs, self.edges))

    @classmethod
    def from_edges(cls, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        vs = varset(vertices)
        return cls._of(vs, _checked_edges(vs, edges))

    @classmethod
    def _of(cls, vertices: VarSet, edges: frozenset[Edge]) -> "Graph":
        """A graph the engine built: sorted vertices and (min, max) int
        edges between them, taken as they are."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def edge_list(self) -> list[Edge]:
        return sorted(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def _require_subset(g: Graph, a: Iterable[int]) -> VarSet:
    a = varset(a)
    missing = sorted(set(a) - set(g.vertices))
    if missing:
        raise InvalidInputError(f"unknown vertex ids: {missing}")
    return a


def boundary(g: Graph, a: Iterable[int]) -> VarSet:
    """Vertices outside ``a`` directly connected to some vertex of ``a``."""
    a = _require_subset(g, a)
    inside = set(a)
    out = set()
    for x, y in g.edges:
        if x in inside and y not in inside:
            out.add(y)
        elif y in inside and x not in inside:
            out.add(x)
    return varset(out)


def _edge_pass(g: Graph, z: VarSet) -> tuple[list[Edge], list[tuple[VarSet, VarSet]]]:
    """One walk over ``g.edges`` for sorted ``z``: the edges with no end in
    ``z``, and each component of the subgraph on ``z`` with its boundary in
    ``g``, ascending by smallest member.  A depth-first search (Tarjan 1972)
    over the neighbour lists of ``z`` splits each component from its boundary.
    """
    inside = set(z)
    kept: list[Edge] = []
    adj: dict[int, list[int]] = {v: [] for v in z}
    for e in g.edges:
        a, b = e
        if a in inside:
            adj[a].append(b)
        if b in inside:
            adj[b].append(a)
        elif a not in inside:
            kept.append(e)
    pairs = []
    for start in z:  # ascending, so components come out by smallest member
        stack = adj.pop(start, None)
        if stack is None:
            continue
        comp, bd = [start], set()
        while stack:
            v = stack.pop()
            more = adj.pop(v, None)  # None once searched, or outside z
            if more is not None:
                comp.append(v)
                stack.extend(more)
            elif v not in inside:
                bd.add(v)
        pairs.append((tuple(sorted(comp)), tuple(sorted(bd))))
    return kept, pairs


def component_boundaries(g: Graph, z: Iterable[int]) -> list[tuple[VarSet, VarSet]]:
    """Connectivity components of the subgraph on ``z``, each paired with
    its boundary in ``g``, ascending by smallest member."""
    return _edge_pass(g, _require_subset(g, z))[1]


def connectivity_components(g: Graph) -> list[VarSet]:
    """Partition of the vertices into maximal mutually connected sets,
    ascending by smallest member."""
    return [comp for comp, _ in _edge_pass(g, g.vertices)[1]]


def subgraph(g: Graph, a: Iterable[int]) -> Graph:
    """Graph on ``a`` keeping exactly the edges with both endpoints in ``a``."""
    a = _require_subset(g, a)
    inside = set(a)
    return Graph._of(a, frozenset(e for e in g.edges if e[0] in inside and e[1] in inside))


def completed_edge_set(a: Iterable[int]) -> frozenset[Edge]:
    """All |a|(|a|-1)/2 possible edges between members of ``a``."""
    a = varset(a)
    return frozenset(combinations(a, 2))


def is_complete(g: Graph, a: Iterable[int]) -> bool:
    """True iff all members of ``a`` are pairwise directly connected.

    Empty sets and singletons are complete (vacuously).
    """
    return completed_edge_set(a) <= g.edges


def cliques(g: Graph) -> list[VarSet]:
    """All maximal complete vertex sets, lexicographically ordered.

    Isolated vertices are singletons without a search, so a graph with no
    vertices has none.  The rest go through Bron-Kerbosch with Tomita's
    pivot (Tomita, Tanaka & Takahashi 2006).  A branch with no candidates
    P ∩ N(v) ends without a call: R ∪ {v} is maximal if X ∩ N(v) is empty.
    """
    adj = g.adjacency()
    found: list[VarSet] = [(v,) for v, nb in adj.items() if not nb]

    def expand(r: tuple[int, ...], p: set[int], x: set[int]) -> None:
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            nv = adj[v]
            q = p & nv
            if q:
                expand(r + (v,), q, x & nv)
            elif x.isdisjoint(nv):
                found.append(tuple(sorted(r + (v,))))
            p.remove(v)
            x.add(v)

    p = {v for v, nb in adj.items() if nb}
    if p:
        expand((), p, set())
    return sorted(found)
