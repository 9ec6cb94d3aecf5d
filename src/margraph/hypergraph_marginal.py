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

Models with many small components pay numpy's per-call cost per table
unless the work is batched, so the route never leaves the columnar form of
:mod:`margraph.potentials`, and the plan is built from arrays.  It holds the
hyperedges as a padded (hyperedges x width) array; one label-flow pass of
:func:`margraph.components.component_labels` finds the components and one
sort finds every boundary.  Components share a local structure when their
touching hyperedges, relabeled by position in the sorted union of the
component and its boundary, coincide together with the component's own
positions (relabeling keeps the order of ids, so smallest-id tie-breaking
maps back exactly).  One sort of those relabeled rows, compared as bytes,
groups the components by structure; min-fill then runs once per
structure, in Python, and orders, factor scopes and sizes are read off by
indexing.  Each structure hands the folds its components' hyperedge
indices, so a family gathers every member's tables of one structure (and
one set of domain sizes) into one stack and folds it once, each stack
holding at most ``STATE_LIMIT`` entries in its largest table.  The folds
are summed per member and per boundary, ranked by component in
``plan.components`` order, and split as stacks, one gather per sub-scope
shape, into a columnar potential per member; its marginal is its
restriction plus those innovations, summed per scope in that order.  Every
sum runs in the order a component-by-component loop would use, so results
do not depend on the grouping, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain, combinations, zip_longest

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
    _drop_null,
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


def _require_within_limit(entries: int) -> None:
    if entries > STATE_LIMIT:
        raise ResourceLimitError(
            f"elimination needs {entries} table entries, "
            f"above the limit of {STATE_LIMIT}")


class EliminationPlan:
    """How marginalizing onto a retained set folds the eliminated variables.

    Built once per call from a hypergraph of interaction scopes; a plan from
    a family's hypergraph serves every member.  It holds:

    - ``components``: the connectivity components of the eliminated set in
      the graph the hypergraph induces on ``vertices``, ordered by smallest
      member, and their ``boundaries`` in that graph;
    - ``orders``: a greedy min-fill elimination order of each component,
      ties to the smallest id, computed once per local structure;
    - ``factors``: per component, the scope of every product factor its
      fold forms along its order, from which :meth:`fold_entries` and
      :meth:`largest_factor` predict the largest allocation;
      :meth:`largest_split` predicts the entries the innovation split of
      the widest boundary makes.

    ``edges`` are the hyperedges, in lexicographic order, kept also as a
    padded (hyperedges x width) array of vertex positions, -1 past the end
    of each.  Components and boundaries are found at construction; the
    grouping by local structure (see the module docstring), min-fill and
    the sizes wait until an order or a size is asked for, so
    :func:`boundary_hypergraph` pays for no more.  Each structure keeps, as
    arrays with a row per component, the ranks of its components in
    ``components``, the indices of their touching hyperedges (the rows the
    folds gather) and their local variables.  A lone component skips the
    batching: its boundary and structure are read in plain Python, where
    numpy's per-call cost would outweigh the work.

    A member of a family touches a subset of the plan's hyperedges, so the
    tables its fold of a component forms lie within these factor scopes.
    """

    __slots__ = ("edges", "components", "boundaries", "_ids", "_rows", "_comp", "_width",
                 "_pending", "_built", "_sized_for", "_sizes")

    def __init__(self, h: Hypergraph, vertices, a):
        vertices = varset(vertices)
        a = varset(a)
        if not set(a) <= set(vertices):
            raise InvalidInputError(f"ids {sorted(set(a) - set(vertices))} outside the vertex set")
        self._index(h, vertices)
        n = len(vertices)
        eliminated = np.ones(n, dtype=bool)
        eliminated[np.searchsorted(self._ids, a)] = False
        z = np.flatnonzero(eliminated)
        # index among the eliminated vertices, -1 elsewhere and in the pad slot
        at = np.full(n + 1, -1)
        at[z] = np.arange(len(z))
        inside = at[self._rows]
        # each hyperedge joins its eliminated members to one of them
        hub = inside.max(axis=1, initial=-1)
        r, c = np.nonzero(inside >= 0)
        label = component_labels(len(z), hub[r], inside[r, c])
        root = label == np.arange(len(z))
        comp = np.full(n + 1, -1)
        comp[z] = (np.cumsum(root) - 1)[label]
        self._partition(comp, int(root.sum()))

    @classmethod
    def _one_component(cls, h: Hypergraph, vertices, tau: VarSet) -> "EliminationPlan":
        """A plan that folds ``tau`` as one component, connected or not."""
        plan = cls.__new__(cls)
        plan._index(h, varset(vertices))
        comp = np.full(len(plan._ids) + 1, -1)
        comp[np.searchsorted(plan._ids, tau)] = 0
        plan._partition(comp, 1)
        return plan

    def _index(self, h: Hypergraph, vertices: VarSet) -> None:
        """The hyperedges as the padded array ``_rows`` of positions in ``vertices``."""
        self.edges = edges = h.edges
        self._ids = ids = np.array(vertices, dtype=np.intp)
        pad = int(ids[0]) - 1 if len(ids) else -1  # below every id
        # one row per member slot, one column per hyperedge
        slots = list(zip_longest(*edges, fillvalue=pad))
        slots = np.array(slots, dtype=np.intp).reshape(len(slots), len(edges))
        blank = slots == pad
        pos = np.searchsorted(ids, slots)
        found = blank | (ids[np.minimum(pos, len(ids) - 1)] == slots) if len(ids) else blank
        if not found.all():
            e = edges[np.flatnonzero(~found.all(axis=0))[0]]
            raise InvalidInputError(f"hyperedge {set(e)} not contained in the vertex set")
        pos[blank] = -1
        # column-major, so that reductions along a hyperedge run down columns
        self._rows = pos.T

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
            inside = set(tau)
            bd = varset(v for j in touch.tolist() for v in self.edges[j] if v not in inside)
            self.components, self.boundaries = (tau,), {tau: bd}
            self._width, self._pending = np.array([len(bd)]), (touch,)
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
            self._built = self._group(*self._pending)
        return self._built

    def _group(self, touch, owner=None, inner=None, bound=None) -> list[tuple]:
        n, count, comp = len(self._ids), len(self.components), self._comp
        if count == 1:  # a lone component is its own structure
            [tau] = self.components
            local = varset(tau + self.boundaries[tau])
            at = {v: p for p, v in enumerate(local)}
            scopes = tuple(tuple(at[v] for v in self.edges[j]) for j in touch.tolist())
            return [_structure(scopes, tuple(at[v] for v in tau), len(local),
                               np.zeros(1, dtype=np.intp), touch[None], np.array([local]))]
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

    def touching(self, tau) -> tuple[VarSet, ...]:
        """Hyperedges that meet ``tau``, in lexicographic order."""
        hit = np.zeros(len(self._ids) + 1, dtype=bool)
        hit[np.searchsorted(self._ids, varset(tau))] = True
        return tuple(self.edges[j] for j in np.flatnonzero(hit[self._rows].any(axis=1)).tolist())

    def _sized(self, vars: Variables) -> tuple[list, list[int], int]:
        """For the registry in use (a :class:`Variables` is immutable): per
        structure, its components grouped by the domain sizes at their local
        positions, as (sizes, rows of the structure, entries of the largest
        table the fold forms); the fold entries of each component; and the
        entries of the largest innovation split."""
        if self._sized_for is not vars:
            dom = np.array([len(d) for d in vars.domains])
            groups, fold, split = [], [1] * len(self.components), 0
            for _, _, factors, ranks, _, local in self._structures:
                sizes = dom[local]
                reps, which = _distinct(sizes)
                groups.append([])
                for j, row in enumerate(sizes[reps].tolist()):
                    at = np.flatnonzero(which == j)
                    entries = max(math.prod(row[p] for p in f) for f in factors)
                    split = max(split, math.prod(row[p] + 1 for p in factors[-1]) - 1)
                    groups[-1].append((tuple(row), at, entries))
                    for r in ranks[at].tolist():
                        fold[r] = entries
            self._sized_for, self._sizes = vars, (groups, fold, split)
        return self._sizes

    def fold_entries(self, vars: Variables, tau: VarSet) -> int:
        """Entries of the largest table the fold of component ``tau`` forms,
        its boundary table included."""
        return self._sized(vars)[1][self.components.index(tau)]

    def largest_factor(self, vars: Variables) -> int:
        """Entries of the largest table the folds form."""
        return max(self._sized(vars)[1], default=1)

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


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first of each distinct entry (row, if 2-d) of
    ``keys``, in sorted order (ascending, if 1-d), and which of those each
    entry equals.  Rows compare as raw bytes; one stable sort is far
    cheaper than ``np.unique``, above all than ``np.unique(axis=0)``."""
    if len(keys) == 1:
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    if keys.ndim == 2:
        keys = np.ascontiguousarray(keys).view(
            np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    which = np.empty(len(keys), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return order[new], which


def _cut(flat: list, sizes: np.ndarray) -> tuple[VarSet, ...]:
    """``flat`` cut into consecutive tuples of ``sizes``."""
    ends = np.cumsum(sizes).tolist()
    return tuple(tuple(flat[s:e]) for s, e in zip([0] + ends, ends))


def _checked_plan(h: Hypergraph, vars: Variables, a) -> EliminationPlan:
    plan = EliminationPlan(h, vars.all_ids(), a)
    _require_within_limit(max(plan.largest_factor(vars), plan.largest_split(vars)))
    return plan


def boundary_hypergraph(h: Hypergraph, vars_ids, a) -> Hypergraph:
    """Boundaries of the eliminated components, as a hypergraph on ``a``.

    The graph induced by ``h`` on ``vars_ids`` is restricted to the
    eliminated set; each connectivity component contributes its boundary
    (taken in the induced graph).  Duplicates collapse.  A component with
    no neighbors in ``a`` contributes the empty set, which is kept so
    callers can see it (it only ever feeds the normalizing constant).
    """
    return Hypergraph(EliminationPlan(h, vars_ids, a).boundaries.values(), allow_empty=True)


def _local_structure(vars: Variables, scopes, order) -> tuple[tuple, VarSet]:
    """What a fold of tables on ``scopes`` along ``order`` computes, up to
    the variables' names: the scopes and the order relabeled to positions
    in the sorted union of ``order`` and the scopes, plus the domain sizes
    at those positions.  Also returns that union, to map positions back.

    The relabeling keeps the order of ids, so a fold of the relabeled
    structure does the same arithmetic as a fold of the original.
    """
    local = varset(chain(order, *scopes))
    at = {v: k for k, v in enumerate(local)}
    structure = (tuple(tuple(at[v] for v in s) for s in scopes),
                 tuple(at[v] for v in order), vars.sizes(local))
    return structure, local


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


def _fold(vars: Variables, tables, order) -> tuple[VarSet, np.ndarray]:
    """Sum the variables of ``order`` out of exp(-sum of ``tables``), one at
    a time and in log space (bucket elimination).

    Returns the scope left over and -ln of the sum on it.
    """
    structure, local = _local_structure(vars, [t.scope for t in tables], order)
    bd, total = _fold_stack(structure, [t.values[None] for t in tables], 1)
    return tuple(local[p] for p in bd), total[0]


def component_potential(u: Potential, tau, plan: EliminationPlan | None = None) -> InteractionTable:
    """Fold the variables ``tau`` into a table over their boundary.

    The entry at a boundary assignment b is
    -ln sum_t exp(-sum of the interactions touching tau at (b, t)),
    the sum running over the joint assignments t of tau, and the boundary
    is every variable outside tau that shares an interaction with it.  The
    sum is never formed over all of tau at once: its variables are
    eliminated one at a time along ``plan``'s order for the component tau
    (without a plan, a min-fill order of the interactions touching tau),
    each step combining only the factors that contain the variable.  A
    variable no interaction touches contributes -ln(its domain size), so a
    component touched by no interaction yields the constant -ln(number of
    component assignments) on the empty scope.

    With a plan, tau must be one of its components and every scope of ``u``
    one of the hyperedges it was built from; the plan's size is the
    caller's to check.  Without one, a fold whose largest table would
    exceed ``STATE_LIMIT`` entries raises :class:`ResourceLimitError`.
    """
    tau = varset(tau)
    if not tau:
        raise InvalidInputError("component must be non-empty")
    n = len(u.vars)
    if tau[0] < 0 or tau[-1] >= n:
        raise InvalidInputError(f"ids {[v for v in tau if not 0 <= v < n]} outside the registry")
    if plan is None:
        plan = EliminationPlan._one_component(Hypergraph._of(u.scopes()), u.vars.all_ids(), tau)
        _require_within_limit(plan.fold_entries(u.vars, tau))
    tables = [t for s in plan.touching(tau) if (t := u.table_for(s)) is not None]
    return InteractionTable(*_fold(u.vars, tables, plan.orders[tau]))


def _locate(u: Potential, plan: EliminationPlan) -> tuple[np.ndarray, np.ndarray]:
    """The group index and row of the table of ``u`` on each hyperedge of
    ``plan``, group -1 where ``u`` has none.  Every scope of ``u`` must be
    a hyperedge of the plan."""
    m, width = plan._rows.shape
    group, row = np.full(m, -1), np.zeros(m, dtype=np.intp)
    if not u._groups:
        return group, row
    padded = [plan._rows]
    for g in u._groups:
        scopes = np.full((len(g.scopes), width), -1)
        scopes[:, :g.scopes.shape[1]] = np.searchsorted(plan._ids, g.scopes)
        padded.append(scopes)
    both = np.concatenate(padded)
    # a stable sort puts each table right after its equal hyperedge
    order = np.lexsort(both.T[::-1])
    edge = np.empty(len(both), dtype=np.intp)
    edge[order] = np.cumsum(order < m) - 1
    for k, g in enumerate(u._groups):
        at = edge[m:m + len(g.scopes)]
        group[at], row[at] = k, np.arange(len(at))
        m += len(at)
    return group, row


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
    the plan's hyperedge indices; each fold equals
    :func:`component_potential` on its component.  A component a member
    touches with only some of the plan's hyperedges folds with the others
    of the same reduced structure.
    """
    vars = members[0].vars
    located = [_locate(u, plan) for u in members]
    sources = [g.values for u in members for g in u._groups]
    offset = np.cumsum([0] + [len(u._groups) for u in members])[:-1, None, None]
    out: list[list] = [[] for _ in members]
    reduced: dict[tuple, list] = {}
    for (scopes, order, factors, ranks, edges, local), groups in zip(plan._structures,
                                                                     plan._sized(vars)[0]):
        if not factors[-1]:
            continue  # constant factor, absorbed by normalization
        for sizes, at, entries in groups:
            src = np.stack([group[edges[at]] for group, _ in located])
            row = np.stack([rows[edges[at]] for _, rows in located])
            whole = (src >= 0).all(axis=2)
            m, b = np.nonzero(whole)
            _fold_rows((scopes, order, sizes), entries, sources, m, ranks[at][b], local[at][b],
                       (src + offset)[m, b], row[m, b], out)
            for m, b in zip(*np.nonzero(~whole)):  # a member without some of the hyperedges
                present = src[m, b] >= 0
                structure, ids = _local_structure(
                    vars, [plan.edges[j] for j in edges[at][b][present].tolist()],
                    tuple(local[at][b][list(order)].tolist()))
                reduced.setdefault(structure, []).append(
                    (m, ranks[at][b], ids, src[m, b][present] + offset[m, 0, 0],
                     row[m, b][present], entries))
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
    require_normalized(u)
    a = varset(a)
    allv = u.vars.all_ids()
    if not set(a) <= set(allv):
        raise InvalidInputError(f"ids {sorted(set(a) - set(allv))} outside the registry")
    u = _drop_null(u, null_tol)
    plan = _checked_plan(hypergraph_of(u, null_tol), u.vars, a)
    innovation = _innovation_tables(u, plan, null_tol, _component_folds([u], plan)[0])
    return [Innovation(t.scope, t) for t in innovation.tables]


def _model_subgraph(plan: EliminationPlan, a: VarSet) -> Graph:
    """The subgraph on ``a`` of the graph the plan's hyperedges induce: the
    pairs of retained variables that share a hyperedge."""
    rows = plan._rows
    retained = ((plan._comp[rows] < 0) & (rows >= 0)).sum(axis=1)
    inside = set(a)
    return Graph._of(a, frozenset(chain.from_iterable(
        combinations([v for v in plan.edges[j] if v in inside], 2)
        for j in np.flatnonzero(retained >= 2).tolist())))


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
    for m in fam:
        require_normalized(m)
    vars = fam.vars
    allv = vars.all_ids()
    a = varset(a)
    if not set(a) <= set(allv):
        raise InvalidInputError(f"ids {sorted(set(a) - set(allv))} outside the registry")

    clean = [_drop_null(m, null_tol) for m in fam]
    h = hypergraph_of(clean, null_tol)
    plan = _checked_plan(h, vars, a)
    h_restricted = h.restrict(a)

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
    removed = Hypergraph._of(h_restricted._set - present)
    kept = Hypergraph._of(h_restricted._set & present)
    added = Hypergraph._of((innovation_scopes - h_restricted._set) & present)
    assert kept._set | added._set == present

    marginal_graph = induced_graph(marginal_hypergraph, a)
    model_subgraph = _model_subgraph(plan, a)
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
