"""Marginalization of Gibbs-potential hypergraph models.

Eliminating the variables outside a retained set A changes a normalized
potential in exactly one way: each connectivity component of the eliminated
set folds into a log-sum table over its boundary, and the anchored Mobius
transform splits those boundary tables into normalized *innovations* on the
subsets of the boundaries.  The marginal potential is the restriction of
the original to A plus the innovations; reading off which scopes survive
(per family member) yields the marginal hypergraph together with the sets
that appear, disappear, or persist, and settles graphical and parametric
collapsibility.

One :class:`EliminationPlan` per call fixes the components, their
boundaries, an elimination order inside each component and the size of the
largest table the folds will form; a plan above ``STATE_LIMIT`` entries is
refused before any table is allocated.  A component is folded by
sum-product variable elimination in log space (Koller & Friedman,
*Probabilistic Graphical Models*, ch. 9): eliminating a variable combines
only the factors that contain it and replaces them by their log-sum over
that variable, stabilized by the smallest energy along the summed axis.
The cost follows the width of the order, not the size of the component.
The plan also refuses a boundary whose innovation split would make more
than ``STATE_LIMIT`` entries, prod(|dom v| + 1) - 1 for a boundary d.

The route stays columnar, since models with many small components would
otherwise pay numpy's per-call cost per table.  One lexsort of every
member's scope arrays (:func:`~margraph.potentials._scope_rows`) gives the
plan its hyperedges, as a padded array in lexicographic order, and finds
each member's table on each; tuples are made only of the rows a step
reads.  One label-flow pass of :func:`margraph.components.component_labels`
finds the components and one sort every boundary.  Components share a local
structure when their touching hyperedges, relabeled by position in the
sorted union of component and boundary, coincide together with the
component's own positions (relabeling keeps the order of ids, so
smallest-id tie-breaking maps back); one byte-wise sort groups them, and
min-fill runs once per structure.  A family gathers every member's tables
of one structure and one set of domain sizes into one stack and folds it
once, with at most ``STATE_LIMIT`` entries in its largest table.  The folds
are summed per member and per boundary in ``plan.components`` order and
split as stacks into a columnar potential per member, whose marginal is its
restriction plus those innovations, summed per scope in that order.  Every
sum runs in the order a component-by-component loop would use, so results
do not depend on the grouping, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .components import component_labels
from .errors import STATE_LIMIT, InvalidInputError, ResourceLimitError
from .graphs import Graph, VarSet, Variables, varset
from .potentials import (
    NULL_TOL,
    Hypergraph,
    InteractionTable,
    Potential,
    PotentialFamily,
    _aligned,
    _anchored_parts,
    _distinct,
    _drop_null,
    _scope_rows,
    _split,
    _sum_parts,
    hypergraph_of,
    induced_graph,
    is_normalized,
    require_normalized,
    restrict,
)


@dataclass(frozen=True)
class Innovation:
    """A new normalized interaction created on a subset of a boundary set."""

    scope: VarSet
    table: InteractionTable


@dataclass(frozen=True)
class MarginalReport:
    """Everything marginalization does to a hypergraph model.

    ``marginal_hypergraph`` always equals (kept | added) where kept is the
    restriction of the original hypergraph to the retained set minus
    ``removed``.  ``retained`` echoes the id set the report is about.
    ``model_subgraph`` is the subgraph of the model's graph on the retained
    set; the model is graphically collapsible when it equals
    :meth:`marginal_graph`.
    """

    retained: VarSet
    marginal_family: PotentialFamily
    marginal_hypergraph: Hypergraph
    added: Hypergraph
    removed: Hypergraph
    kept: Hypergraph
    graphically_collapsible: bool
    parametrically_collapsible: bool
    innovation_scopes: Hypergraph
    model_subgraph: Graph
    _marginal_graph: Graph

    @property
    def marginal_potential(self) -> Potential:
        """The marginal potential of a one-member family."""
        if len(self.marginal_family) != 1:
            raise InvalidInputError(
                "marginal_potential is only defined for one-member families; "
                "use marginal_family")
        return self.marginal_family.members[0]

    def marginal_graph(self) -> Graph:
        """The graph the marginal hypergraph induces on the retained set."""
        return self._marginal_graph


def _min_fill_order(scopes, tau: VarSet) -> tuple[tuple[int, ...], list[VarSet]]:
    """Greedy min-fill elimination order of ``tau`` in the graph joining the
    members of each of ``scopes``; ties go to the smallest id.

    Also returns the scope of the factor formed at each step: the
    eliminated variable together with its neighbours at that point.
    """
    nb: dict[int, set[int]] = {v: set() for v in tau}
    for s in scopes:
        for v in s:
            nb.setdefault(v, set()).update(s)
    for v, ns in nb.items():
        ns.discard(v)

    def fill(v: int) -> int:
        return sum(1 for x, y in combinations(nb[v], 2) if y not in nb[x])

    score = {v: fill(v) for v in tau}
    heap = [(f, v) for v, f in score.items()]
    heapq.heapify(heap)
    order, factors = [], []
    while heap:
        f, v = heapq.heappop(heap)
        if score.get(v) != f:
            continue  # eliminated already, or a stale score
        del score[v]
        ns = nb.pop(v)
        order.append(v)
        factors.append(varset(ns | {v}))
        for x in ns:
            nb[x].discard(v)
            nb[x] |= ns - {x}
        # fill counts change only within two steps of v
        for x in ns.union(*(nb[y] for y in ns)) & score.keys():
            new = fill(x)
            if new != score[x]:
                score[x] = new
                heapq.heappush(heap, (new, x))
    return tuple(order), factors


class EliminationPlan:
    """How marginalizing onto a retained set folds the eliminated variables.

    Built once per call from the interaction scopes, so that a plan of a
    family serves every member.  It holds:

    - ``components``: the connectivity components of the eliminated set in
      the graph the hyperedges induce on the vertices, ordered by smallest
      member, and their ``boundaries`` in that graph;
    - ``orders``: a greedy min-fill elimination order of each component,
      ties to the smallest id, computed once per local structure;
    - ``factors``: per component, the scope of every product factor its
      fold forms along its order, from which :meth:`largest_factor`
      predicts the largest allocation; :meth:`largest_split` predicts the
      entries the innovation split of the widest boundary makes.

    The hyperedges are ``_rows``, vertex positions padded with -1, in the
    order of :func:`~margraph.potentials._scope_rows`.  The route builds
    the plan from the members' scope arrays (:meth:`_of`), whose one sort
    also finds each member's tables; ``EliminationPlan(h, vertices, a)``
    feeds ``h.edges`` through the same helper.  ``edges`` makes tuples of
    every row on each access; the route makes them of the rows a step
    reads.  Components and boundaries are found at construction; the
    grouping by local structure, min-fill and the sizes wait until an order
    or a size is asked for, so :func:`boundary_hypergraph` pays for no
    more.  Each structure keeps, with a row per component, the ranks of its
    components in ``components``, the indices of their touching hyperedges
    (the rows the folds gather) and their local variables.  A lone
    component skips the batching: its boundary and structure are read in
    plain Python, where numpy's per-call cost would outweigh the work.

    A member of a family touches a subset of the plan's hyperedges, so the
    tables its fold of a component forms lie within these factor scopes.
    """

    __slots__ = ("components", "boundaries", "_ids", "_rows", "_tables", "_comp", "_width",
                 "_pending", "_built", "_sized_for", "_sizes")

    def __init__(self, h: Hypergraph, vertices, a):
        vertices = varset(vertices)
        a = varset(a)
        inside = set(vertices)
        if not inside.issuperset(a):
            raise InvalidInputError(f"ids {sorted(set(a) - inside)} outside the vertex set")
        if not inside.issuperset(chain.from_iterable(h.edges)):
            e = next(e for e in h.edges if not inside.issuperset(e))
            raise InvalidInputError(f"hyperedge {set(e)} not contained in the vertex set")
        ids = np.array(vertices, dtype=np.intp)
        rows, _ = _scope_rows([np.searchsorted(ids, np.fromiter(
            chain.from_iterable(e for e in h.edges if len(e) == w), np.intp).reshape(k, w))
            for w, k in Counter(map(len, h.edges)).items()])
        self._init(ids, rows, a, None)

    @classmethod
    def _of(cls, members, a: VarSet) -> "EliminationPlan":
        """The plan of the scopes of ``members``, potentials on one registry.

        ``_tables`` holds where each member's tables sit, as two (members x
        hyperedges) arrays: the group of the table on each hyperedge,
        counted across the members' groups in turn (-1 where the member has
        none), and its row in that group.
        """
        groups = [(m, g) for m, u in enumerate(members) for g in u._groups]
        rows, which = _scope_rows([g.scopes for _, g in groups])
        src = np.full((len(members), len(rows)), -1, dtype=np.intp)
        row = np.zeros_like(src)
        for k, ((m, _), at) in enumerate(zip(groups, which)):
            src[m, at], row[m, at] = k, np.arange(len(at))
        plan = cls.__new__(cls)
        plan._init(np.arange(len(members[0].vars)), rows, a, (src, row))
        return plan

    def _init(self, ids: np.ndarray, rows: np.ndarray, a: VarSet, tables) -> None:
        """The constructor core, on the hyperedges ``rows`` in positions of ``ids``."""
        self._ids, self._rows, self._tables = ids, rows, tables
        n = len(ids)
        eliminated = np.ones(n, dtype=bool)
        eliminated[np.searchsorted(ids, a)] = False
        z = np.flatnonzero(eliminated)
        # index among the eliminated vertices, -1 elsewhere and in the pad slot
        at = np.full(n + 1, -1)
        at[z] = np.arange(len(z))
        inside = at[rows]
        # each hyperedge joins its eliminated members to one of them
        hub = inside.max(axis=1, initial=-1)
        r, c = np.nonzero(inside >= 0)
        label = component_labels(len(z), hub[r], inside[r, c])
        root = label == np.arange(len(z))
        comp = np.full(n + 1, -1)
        comp[z] = (np.cumsum(root) - 1)[label]
        self._partition(comp, int(root.sum()))

    @property
    def edges(self) -> tuple[VarSet, ...]:
        """The hyperedges, in lexicographic order."""
        return tuple(self._scopes(slice(None)))

    def _scopes(self, j) -> list[VarSet]:
        """The hyperedges at indices ``j``, as tuples of ids."""
        rows = self._rows[j]
        return [tuple(r[:k]) for r, k in zip(self._ids[rows].tolist(),
                                              (rows >= 0).sum(axis=1).tolist())]

    def _partition(self, comp: np.ndarray, count: int) -> None:
        """Components and boundaries from ``comp``, the component of each
        vertex position (-1 for the retained ones and the pad slot)."""
        n, rows = len(self._ids), self._rows
        member = comp[rows]
        # the eliminated members of a hyperedge lie in one component
        owner = member.max(axis=1, initial=-1)
        touch = np.flatnonzero(owner >= 0)
        self._comp, self._built, self._sized_for = comp, None, None
        if count == 1:  # a lone component (see the class docstring)
            tau = tuple(self._ids[comp[:n] >= 0].tolist())
            scopes = self._scopes(touch)
            bd = varset(set(chain.from_iterable(scopes)).difference(tau))
            self.components, self.boundaries = (tau,), {tau: bd}
            self._width, self._pending = np.array([len(bd)]), (touch, scopes)
            return
        # the boundary: members of a touching hyperedge outside its component
        r, c = np.nonzero((member != owner[:, None]) & (rows >= 0))
        bound = owner[r] * n + rows[r, c]
        bound = bound[_distinct(bound)[0]]  # ascending
        touch = touch[np.argsort(owner[touch], kind="stable")]
        inner = np.flatnonzero(comp[:n] >= 0)
        inner = inner[np.argsort(comp[inner], kind="stable")]
        self._pending = (touch, owner[touch], inner, bound)
        self._width = np.bincount(bound // n, minlength=count)
        self.components = _cut(self._ids[inner].tolist(), np.bincount(comp[inner], minlength=count))
        self.boundaries = dict(zip(self.components,
                                   _cut(self._ids[bound % n].tolist(), self._width)))

    @property
    def _structures(self) -> list[tuple]:
        """Per local structure: its relabeled scopes, its order, its factor
        scopes followed by its boundary (all as local positions), and the
        ranks, touching hyperedge indices and local ids of its components,
        one row each."""
        if self._built is None:
            self._built = (self._lone if len(self.components) == 1 else self._group)(*self._pending)
        return self._built

    def _lone(self, touch, scopes) -> list[tuple]:
        scopes, tau, local = _relabeled(scopes, self.components[0])
        return [_structure(scopes, tau, len(local), np.zeros(1, dtype=np.intp), touch[None],
                           np.array([local]))]

    def _group(self, touch, owner, inner, bound) -> list[tuple]:
        n, count, comp = len(self._ids), len(self.components), self._comp
        rows = self._rows[touch]
        local = np.sort(np.concatenate((comp[inner] * n + inner, bound)))
        size = np.bincount(local // n, minlength=count)
        start = np.cumsum(size) - size
        hyperedges = np.bincount(owner, minlength=count)
        first = np.cumsum(hyperedges) - hyperedges
        relabeled = np.where(rows >= 0, np.searchsorted(local, owner[:, None] * n + rows)
                             - start[owner][:, None], -1)
        built = []
        shape = hyperedges * (n + 1) + size
        kinds, kind = _distinct(shape)
        for j, c in enumerate(kinds.tolist()):
            cs = np.flatnonzero(kind == j)
            k, width = int(hyperedges[c]), int(size[c])
            edges = first[cs][:, None] + np.arange(k)
            pos = local[start[cs][:, None] + np.arange(width)] % n
            inside = comp[pos] >= 0
            reps, which = _distinct(np.hstack((relabeled[edges].reshape(len(cs), -1), inside)))
            for i, rep in enumerate(reps.tolist()):
                scopes = tuple(tuple(p for p in row if p >= 0)
                               for row in relabeled[edges[rep]].tolist())
                at = which == i
                built.append(_structure(scopes, tuple(np.flatnonzero(inside[rep]).tolist()), width,
                                        cs[at], touch[edges[at]], self._ids[pos[at]]))
        return built

    @property
    def orders(self) -> dict[VarSet, tuple[int, ...]]:
        return {self.components[r]: tuple(row)
                for _, order, _, ranks, _, local in self._structures
                for r, row in zip(ranks.tolist(), local[:, list(order)].tolist())}

    @property
    def factors(self) -> dict[VarSet, list[VarSet]]:
        return {self.components[r]: [tuple(row[p] for p in f) for f in factors[:-1]]
                for _, _, factors, ranks, _, local in self._structures
                for r, row in zip(ranks.tolist(), local.tolist())}

    def _sized(self, vars: Variables) -> tuple[list, int, int]:
        """For the registry in use (a :class:`Variables` is immutable): per
        structure, its components grouped by the domain sizes at their local
        positions, as (sizes, rows of the structure, entries of the largest
        table the fold forms); the largest of those entries; and the entries
        of the largest innovation split."""
        if self._sized_for is not vars:
            dom = np.array([len(d) for d in vars.domains])
            groups, largest, split = [], 1, 0
            for _, _, factors, _, _, local in self._structures:
                sizes = dom[local]
                reps, which = _distinct(sizes)
                groups.append([])
                for j, row in enumerate(sizes[reps].tolist()):
                    entries = max(math.prod(row[p] for p in f) for f in factors)
                    largest = max(largest, entries)
                    split = max(split, math.prod(row[p] + 1 for p in factors[-1]) - 1)
                    groups[-1].append((tuple(row), np.flatnonzero(which == j), entries))
            self._sized_for, self._sizes = vars, (groups, largest, split)
        return self._sizes

    def largest_factor(self, vars: Variables) -> int:
        """Entries of the largest table the folds form."""
        return self._sized(vars)[1]

    def largest_split(self, vars: Variables) -> int:
        """Entries of the largest innovation split: a boundary d splits into
        pieces on its non-empty subsets, prod(|dom v| + 1) - 1 entries."""
        return self._sized(vars)[2]


def _structure(scopes: tuple, tau: VarSet, width: int, ranks, edges, local) -> tuple:
    """A local structure with its min-fill order, as :attr:`EliminationPlan._structures`
    holds it; ``tau`` holds the positions of the component among ``width``."""
    order, factors = _min_fill_order(scopes, tau)
    boundary = tuple(p for p in range(width) if p not in tau)
    return scopes, order, tuple(factors) + (boundary,), ranks, edges, local


def _cut(flat: list, sizes: np.ndarray) -> tuple[VarSet, ...]:
    """``flat`` cut into consecutive tuples of ``sizes``."""
    ends = np.cumsum(sizes).tolist()
    return tuple(tuple(flat[s:e]) for s, e in zip([0] + ends, ends))


def _checked_plan(members, a, null_tol: float) -> tuple[list, VarSet, EliminationPlan]:
    """``members`` (normalized, on one registry) without their null tables,
    ``a`` as a checked id set, and the plan of those tables, refused when
    its largest table would exceed ``STATE_LIMIT`` entries."""
    for m in members:
        require_normalized(m)
    a, allv = varset(a), members[0].vars.all_ids()
    if not set(a) <= set(allv):
        raise InvalidInputError(f"ids {sorted(set(a) - set(allv))} outside the registry")
    clean = [_drop_null(m, null_tol) for m in members]
    plan, vars = EliminationPlan._of(clean, a), members[0].vars
    entries = max(plan.largest_factor(vars), plan.largest_split(vars))
    if entries > STATE_LIMIT:
        raise ResourceLimitError(
            f"elimination needs {entries} table entries, above the limit of {STATE_LIMIT}")
    return clean, a, plan


def boundary_hypergraph(h: Hypergraph, vars_ids, a) -> Hypergraph:
    """Boundaries of the eliminated components, as a hypergraph on ``a``.

    The graph induced by ``h`` on ``vars_ids`` is restricted to the
    eliminated set; each connectivity component contributes its boundary
    (taken in the induced graph).  Duplicates collapse.  A component with
    no neighbors in ``a`` contributes the empty set, which is kept so
    callers can see it (it only ever feeds the normalizing constant).
    """
    return Hypergraph(EliminationPlan(h, vars_ids, a).boundaries.values(), allow_empty=True)


def _relabeled(scopes, order) -> tuple[tuple, tuple, VarSet]:
    """``scopes`` and ``order`` relabeled to positions in ``local``, the
    sorted union of ``order`` and the scopes, and ``local`` itself.

    The relabeling keeps the order of ids, so a fold of the relabeled
    structure (with the domain sizes at those positions) does the same
    arithmetic as a fold of the original.
    """
    local = varset(chain(order, *scopes))
    at = {v: k for k, v in enumerate(local)}
    return tuple(tuple(at[v] for v in s) for s in scopes), tuple(at[v] for v in order), local


def _fold_stack(structure: tuple, stacks, batch: int) -> tuple[VarSet, np.ndarray]:
    """Bucket elimination of ``batch`` folds of one local structure at once.

    ``stacks[i]`` holds table i of every fold, stacked along a leading
    axis.  The order's variables are summed out of exp(-sum of the tables)
    one at a time, in log space; returns the local scope left over and
    -ln of the sum on it, one entry of the leading axis per fold.
    """
    scopes, order, sizes = structure
    pos = {v: k for k, v in enumerate(order)}
    buckets: list[list] = [[] for _ in order]
    rest: list = []

    def place(scope: VarSet, values: np.ndarray) -> None:
        first = min((pos[v] for v in scope if v in pos), default=None)
        (rest if first is None else buckets[first]).append((scope, values))

    for scope, values in zip(scopes, stacks):
        place(scope, values)
    const = 0.0
    for v, bucket in zip(order, buckets):
        if not bucket:  # no factor contains v: it only multiplies the sum
            const -= math.log(sizes[v])
            continue
        scope = varset(chain.from_iterable(s for s, _ in bucket))
        energy = 0  # as sum() starts, so -0.0 entries become 0.0
        for s, values in bucket:
            energy = energy + values.reshape(
                (batch,) + tuple(sizes[x] if x in s else 1 for x in scope))
        ax = scope.index(v) + 1
        low = energy.min(axis=ax, keepdims=True)
        folded = low - np.log(np.exp(low - energy).sum(axis=ax, keepdims=True))
        place(scope[:ax - 1] + scope[ax:], np.squeeze(folded, axis=ax))
    bd = varset(chain.from_iterable(s for s, _ in rest))
    total = np.full((batch,) + tuple(sizes[v] for v in bd), const)
    for s, values in rest:
        total += _aligned(values, s, bd)
    return bd, total


def _gather(sources: list, src: np.ndarray, row: np.ndarray) -> list[np.ndarray]:
    """The stack of each column of the (B, k) ``src`` and ``row``: stack i
    holds row ``row[j, i]`` of ``sources[src[j, i]]`` for every j.  A run
    of rows with equal sources takes all the columns of one source in one
    gather."""
    cuts = (np.flatnonzero((src[1:] != src[:-1]).any(axis=1)) + 1).tolist()
    runs = []
    for start, end in zip([0] + cuts, cuts + [len(src)]):
        first = src[start].tolist()
        pieces = [None] * len(first)
        for g in set(first):
            cols = [i for i, x in enumerate(first) if x == g]
            block = sources[g][row[start:end, cols].T]  # each column's stack contiguous
            for k, i in enumerate(cols):
                pieces[i] = block[k]
        runs.append(pieces)
    return runs[0] if len(runs) == 1 else [np.concatenate(col) for col in zip(*runs)]


def _fold_rows(structure: tuple, widest: int, sources: list, member, rank, local, src, row,
               out: list) -> None:
    """Fold the components whose tables are rows ``row[i]`` of the stacks
    ``sources[src[i]]``, for every i, and append each member's folds to
    ``out[member]``: (ranks, scopes, values) as in :func:`_component_folds`.
    ``member`` is ascending; ``local`` holds the ids of the local positions
    of ``structure``.  A stack holds at most ``STATE_LIMIT`` entries in its
    largest table, ``widest`` entries per fold."""
    step = max(1, STATE_LIMIT // widest)
    for start in range(0, len(rank), step):
        c = slice(start, start + step)
        stacks = _gather(sources, src[c], row[c])
        bd, total = _fold_stack(structure, stacks, len(rank[c]))
        ids = local[c][:, list(bd)]
        cuts = np.searchsorted(member[c], np.arange(len(out) + 1)).tolist()
        for m, (s, e) in enumerate(zip(cuts, cuts[1:])):
            if s < e:
                out[m].append((rank[c][s:e], ids[s:e], total[s:e]))


def _component_folds(members, plan: EliminationPlan) -> list[list]:
    """Per member of ``members`` (potentials on one registry), the folds of
    the components of ``plan`` with a non-empty boundary, as stacks: a list
    of (ranks, scopes, values), where row i of the (B, k) ``scopes`` array
    and of the (B, *shape) ``values`` stack hold the scope and the -ln table
    of the fold of ``plan.components[ranks[i]]``.

    The components of one local structure and one set of domain sizes fold
    as one stack across the family, gathered from the members' stacks by
    the plan's hyperedge indices; each fold equals a fold of its component
    on its own, table by table.  A component a member touches with only
    some of the plan's hyperedges folds with the others of the same reduced
    structure.  The plan must be built from ``members``
    (:meth:`EliminationPlan._of`).
    """
    vars = members[0].vars
    tables, rows = plan._tables
    sources = [g.values for u in members for g in u._groups]
    out: list[list] = [[] for _ in members]
    reduced: dict[tuple, list] = {}
    for (scopes, order, factors, ranks, edges, local), groups in zip(plan._structures,
                                                                     plan._sized(vars)[0]):
        if not factors[-1]:
            continue  # constant factor, absorbed by normalization
        for sizes, at, entries in groups:
            src, row = tables[:, edges[at]], rows[:, edges[at]]
            whole = (src >= 0).all(axis=2)
            m, b = np.nonzero(whole)
            _fold_rows((scopes, order, sizes), entries, sources, m, ranks[at][b], local[at][b],
                       src[m, b], row[m, b], out)
            for m, b in zip(*np.nonzero(~whole)):  # a member without some of the hyperedges
                present = src[m, b] >= 0
                *structure, ids = _relabeled(plan._scopes(edges[at][b][present]),
                                             tuple(local[at][b][list(order)].tolist()))
                reduced.setdefault((*structure, vars.sizes(ids)), []).append(
                    (m, ranks[at][b], ids, src[m, b][present], row[m, b][present], entries))
    for structure, items in reduced.items():
        m, rank, ids, src, row, entries = zip(*sorted(items, key=lambda item: item[0]))
        _fold_rows(structure, max(entries), sources, np.array(m), np.array(rank), np.array(ids),
                   np.array(src, dtype=np.intp).reshape(len(m), -1),
                   np.array(row, dtype=np.intp).reshape(len(m), -1), out)
    return out


def _innovation_tables(u: Potential, plan: EliminationPlan, null_tol: float,
                       folds: list) -> Potential:
    """Innovations of ``u`` from its ``folds`` along ``plan`` (its entry of
    :func:`_component_folds`; the boundaries may be wider than what ``u``
    alone induces, e.g. when the plan is built for a family), as one
    potential: a table per innovation scope, kept in stacks.

    The folded tables are summed per boundary in ``plan.components`` order
    and then split, so the result does not depend on how the folds were
    stacked.
    """
    parts = []
    for ranks, scopes, values in folds:
        if (plan._width[ranks] == scopes.shape[1]).all():
            parts += _anchored_parts(u.vars, scopes, values, ranks)
            continue
        # a member without some of the plan's tables can fold onto part of
        # a boundary; such folds are broadcast to the whole boundary
        for k, r in enumerate(ranks.tolist()):
            d = plan.boundaries[plan.components[r]]
            wide = _aligned(values[k], tuple(scopes[k].tolist()), d)
            parts += _anchored_parts(u.vars, np.array([d]),
                                     np.broadcast_to(wide, u.vars.sizes(d))[None], ranks[k:k + 1])
    innovation = Potential._from_parts(u.vars, _split(_sum_parts(parts, zero_first=True)),
                                       null_tol)
    assert is_normalized(innovation)
    return innovation


def innovations(u: Potential, a, null_tol: float = NULL_TOL) -> list[Innovation]:
    """All non-null innovations created by marginalizing ``u`` onto ``a``.

    Innovations exist only on non-empty subsets of the boundary sets of the
    eliminated components; each is normalized by construction.  ``u`` must
    be normalized.
    """
    [u], _, plan = _checked_plan([u], a, null_tol)
    innovation = _innovation_tables(u, plan, null_tol, _component_folds([u], plan)[0])
    return [Innovation(t.scope, t) for t in innovation.tables]


def _retained(plan: EliminationPlan, a: VarSet) -> tuple[frozenset, Graph]:
    """The hyperedges of the plan within ``a``, and the subgraph on ``a`` of
    the graph they all induce: the pairs of retained variables that share a
    hyperedge."""
    rows = plan._rows
    held = rows >= 0
    retained = ((plan._comp[rows] < 0) & held).sum(axis=1)
    inside = set(a)
    return frozenset(plan._scopes(retained == held.sum(axis=1))), Graph._of(
        a, frozenset(chain.from_iterable(combinations([v for v in s if v in inside], 2)
                                         for s in plan._scopes(retained >= 2))))


def marginalize_hypergraph(fam, a, null_tol: float = NULL_TOL) -> MarginalReport:
    """Marginalize a family of normalized potentials onto ``a``.

    Per member, the marginal potential is the restriction to ``a`` plus the
    member's innovations (tables adding up on shared scopes; results that
    are null within ``null_tol`` are dropped).  Scope bookkeeping is done
    family-wide: a scope counts as present when it is non-null for at least
    one member, and as disappearing only when the combined table is null
    for every member.

    Graphical collapsibility compares the marginal hypergraph's induced
    graph with the subgraph of the model's graph on ``a``; parametric
    collapsibility requires every innovation of every member to be null.
    """
    if isinstance(fam, Potential):
        fam = PotentialFamily([fam])
    vars = fam.vars
    clean, a, plan = _checked_plan(fam.members, a, null_tol)
    restricted, model_subgraph = _retained(plan, a)

    innovation_scopes: set[VarSet] = set()
    marginals = []
    for m, folds in zip(clean, _component_folds(clean, plan)):
        innovation = _innovation_tables(m, plan, null_tol, folds)
        innovation_scopes.update(*(map(tuple, g.scopes.tolist()) for g in innovation._groups))
        # a scope's restricted table (rank 0) comes before its innovation (rank 1)
        parts = restrict(m, a)._parts(0) + innovation._parts(1)
        marginals.append(Potential._from_parts(vars, _sum_parts(parts), null_tol))

    # a scope disappears when its combined table is null for every member
    marginal_hypergraph = hypergraph_of(marginals, null_tol)
    present = marginal_hypergraph._set
    removed = Hypergraph._of(restricted - present)
    kept = Hypergraph._of(restricted & present)
    added = Hypergraph._of((innovation_scopes - restricted) & present)
    assert kept._set | added._set == present

    marginal_graph = induced_graph(marginal_hypergraph, a)
    return MarginalReport(
        retained=a,
        marginal_family=PotentialFamily(marginals),
        marginal_hypergraph=marginal_hypergraph,
        added=added,
        removed=removed,
        kept=kept,
        graphically_collapsible=marginal_graph == model_subgraph,
        parametrically_collapsible=not innovation_scopes,
        innovation_scopes=Hypergraph._of(innovation_scopes),
        model_subgraph=model_subgraph,
        _marginal_graph=marginal_graph,
    )
