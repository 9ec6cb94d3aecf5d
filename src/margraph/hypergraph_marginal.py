"""Marginalization of Gibbs-potential hypergraph models.

Eliminating the variables outside a retained set A changes a normalized
potential in exactly one way: each connectivity component of the eliminated
set folds into a log-sum table over its boundary, and the anchored Mobius
transform splits those boundary tables into normalized *innovations* on the
subsets of the boundaries.  The marginal potential is the restriction of
the original to A plus the innovations; reading off which scopes survive
(per family member) yields the marginal hypergraph together with the sets
that appear, disappear, or persist, and settles graphical and parametric
collapsibility.  The two graphs the report compares, the marginal's and the
model's on A, come from scope arrays: each pair of ids becomes one integer
code, and one sort finds the distinct ones.

One :class:`EliminationPlan` per call fixes how each component folds and
refuses, before any table is allocated, a fold or an innovation split above
``STATE_LIMIT`` entries.  A component is folded by sum-product variable
elimination in log space (Koller & Friedman, *Probabilistic Graphical
Models*, ch. 9): eliminating a variable combines only the factors that
contain it and replaces them by their log-sum over that variable, stabilized
by the smallest energy along the summed axis, so the cost follows the width
of the order, not the size of the component.

The route stays columnar, since models with many small components would
otherwise pay numpy's per-call cost per table: the components of one local
structure fold as one stack across the family, and min-fill runs once per
distinct local structure per process, together with its bucket schedule.
The folds are summed per member and per boundary in ``plan.components``
order and split as stacks into a columnar potential per member, whose
marginal is its restriction plus those innovations, summed per scope in that
order.  Every sum runs in the order a component-by-component loop would use,
so results do not depend on the grouping, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations

import numpy as np

from .components import eliminated_components
from .errors import STATE_LIMIT, InvalidInputError, ResourceLimitError
from .graphs import (Graph, VarSet, Variables, _require_subset, _require_tolerance,
                     component_boundaries, varset)
from .potentials import (
    NULL_TOL,
    Hypergraph,
    InteractionTable,
    Potential,
    PotentialFamily,
    _anchored_parts,
    _distinct,
    _drop_null,
    _readonly,
    _scope_rows,
    _split,
    _sum_parts,
    hypergraph_of,
    induced_graph,
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

    Built once per call, eagerly, from the scope arrays of ``members``
    (potentials on one registry), so that a plan of a family serves every
    member.  It holds:

    - ``components``: the connectivity components of the eliminated set in
      the graph the hyperedges induce on the variables, ordered by smallest
      member, and their ``boundaries`` in that graph, from the pass the
      Gaussian route shares, :func:`~margraph.components.eliminated_components`;
    - ``_structures``: per local structure, its relabeled hyperedges, a
      greedy min-fill elimination order (ties to the smallest id) and the
      scope of every product factor the fold forms along it, from
      :func:`_ordered`; with a row per component, the ranks of its components
      in ``components``, the indices of their touching hyperedges (the
      rows the folds gather) and their local variables.  Components share a
      local structure when their touching hyperedges and own positions
      coincide, relabeled by position in the sorted union of component and
      boundary, which keeps the order of ids (so ties map back); one
      byte-wise sort groups them;
    - ``largest_factor``, the entries of the largest table the folds form,
      and ``largest_split``, the entries the innovation split of the widest
      boundary makes: a boundary d splits into pieces on its non-empty
      subsets, prod(|dom v| + 1) - 1 entries.

    The hyperedges are ``_rows``, variable ids padded with -1, in the order
    of :func:`~margraph.potentials._scope_rows`, whose one sort also finds
    each member's tables: ``_tables`` holds two (members x hyperedges)
    arrays, the group of the table on each hyperedge, counted across the
    members' groups in turn (-1 where the member has none), and its row in
    that group.  Tuples are made only of the rows a step reads.  A lone
    component skips the batching: its structure is read in plain Python,
    where numpy's per-call cost would outweigh the work.

    A member of a family touches a subset of the plan's hyperedges, so the
    tables its fold of a component forms lie within these factor scopes.
    ``_sizes`` groups each structure's (member, component) pairs by the
    domain sizes at the local positions and by which of the structure's
    hyperedges the member has; each group folds as one stack along its
    :func:`_schedule`.  A component whose boundary is empty adds only the
    normalizing constant, so :meth:`_sized` gives it no group: it is never
    folded and counts towards no limit.
    """

    __slots__ = ("components", "boundaries", "largest_factor", "largest_split", "_rows",
                 "_tables", "_comp", "_structures", "_sizes")

    def __init__(self, members, a: VarSet):
        groups = [(m, g) for m, u in enumerate(members) for g in u._groups]
        rows, which = _scope_rows([g.scopes for _, g in groups])
        src = np.full((len(members), len(rows)), -1, dtype=np.intp)
        row = np.zeros_like(src)
        for k, ((m, _), at) in enumerate(zip(groups, which)):
            src[m, at], row[m, at] = k, np.arange(len(at))
        self._rows, self._tables = rows, (src, row)
        n = len(members[0].vars)
        eliminated = np.ones(n + 1, dtype=bool)  # the pad slot n is a kept vertex
        eliminated[list(a) + [n]] = False
        # each hyperedge joins its largest eliminated member to every member
        hub = np.where(eliminated[rows], rows, -1).max(axis=1, initial=-1)
        r, c = np.nonzero((rows >= 0) & (hub >= 0)[:, None])
        comp, inner, size, (owner, bd) = eliminated_components(n + 1, hub[r], rows[r, c],
                                                               eliminated)
        self._comp = comp
        touch = np.flatnonzero(hub >= 0)
        width = np.bincount(owner, minlength=len(size))
        self.components = _cut(inner.tolist(), size)
        self.boundaries = dict(zip(self.components, _cut(bd.tolist(), width)))
        if len(size) == 1:  # a lone component (see the class docstring)
            self._structures = self._lone(touch)
        else:
            touch = touch[np.argsort(comp[hub[touch]], kind="stable")]
            self._structures = self._group(touch, comp[hub[touch]], inner, owner * n + bd)
        self._sizes, self.largest_factor, self.largest_split = self._sized(members[0].vars)

    def _scopes(self, j) -> list[VarSet]:
        """The hyperedges at indices ``j``, as tuples of ids."""
        rows = self._rows[j]
        return [tuple(r[:k]) for r, k in zip(rows.tolist(), (rows >= 0).sum(axis=1).tolist())]

    def _lone(self, touch) -> list[tuple]:
        scopes, tau, local = _relabeled(self._scopes(touch), self.components[0])
        return [(scopes, *_ordered(scopes, tau), np.zeros(1, dtype=np.intp), touch[None],
                 np.array([local]))]

    def _group(self, touch, owner, inner, bound) -> list[tuple]:
        n, count, comp = len(self._comp) - 1, len(self.components), self._comp
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
                tau = tuple(np.flatnonzero(inside[rep]).tolist())
                built.append((scopes, *_ordered(scopes, tau), cs[at], touch[edges[at]], pos[at]))
        return built

    def _sized(self, vars: Variables) -> tuple[list, int, int]:
        """Per structure, its (member, component) pairs grouped by the domain
        sizes at the local positions and by the structure's hyperedges the
        member has, as (the fold's :func:`_schedule`, members, rows of the
        structure, present columns, entries of the largest table the fold
        forms), members ascending; the largest of those entries; and the
        entries of the largest innovation split.  The one check for an empty
        boundary: such a structure gets no group and counts no entries."""
        dom = np.array([len(d) for d in vars.domains])
        has = self._tables[0] >= 0
        groups, largest, split = [], 1, 0
        for scopes, order, factors, _, edges, local in self._structures:
            groups.append([])
            if not factors[-1]:
                continue  # never folded (see the class docstring)
            width = local.shape[1]
            keys = np.empty((len(has), len(edges), width + edges.shape[1]), dtype=np.intp)
            keys[..., :width], keys[..., width:] = dom[local], has[:, edges]
            keys = keys.reshape(-1, keys.shape[2])
            reps, which = _distinct(keys)
            which = which.reshape(len(has), len(edges))
            for j, key in enumerate(keys[reps].tolist()):
                row = key[:width]
                entries = max(math.prod(row[p] for p in f) for f in factors)
                largest = max(largest, entries)
                split = max(split, math.prod(row[p] + 1 for p in factors[-1]) - 1)
                present = [p for p, x in enumerate(key[width:]) if x]
                schedule = _schedule(tuple(scopes[p] for p in present), order, tuple(row),
                                     factors[-1])
                groups[-1].append((schedule, *np.nonzero(which == j), present, entries))
        return groups, largest, split


@lru_cache(maxsize=64)
def _ordered(scopes: tuple, tau: VarSet) -> tuple:
    """The min-fill order of the local structure with hyperedges ``scopes``
    and component ``tau`` (positions), and the scope of every factor its
    fold forms followed by its boundary, the positions outside ``tau``;
    kept per distinct structure, as tuples, for the process."""
    order, factors = _min_fill_order(scopes, tau)
    return order, tuple(factors) + (varset(set(chain(*scopes)).difference(tau)),)


def _cut(flat: list, sizes: np.ndarray) -> tuple[VarSet, ...]:
    """``flat`` cut into consecutive tuples of ``sizes``."""
    ends = np.cumsum(sizes).tolist()
    return tuple(tuple(flat[s:e]) for s, e in zip([0] + ends, ends))


def _checked_plan(members, a, null_tol: float) -> tuple[list, VarSet, EliminationPlan]:
    """``members`` (normalized, on one registry) without their null tables,
    ``a`` as a checked id set, and the plan of those tables, refused when
    its largest table would exceed ``STATE_LIMIT`` entries."""
    _require_tolerance(null_tol, "null_tol")
    for m in members:
        require_normalized(m)
    a = _require_subset(a, range(len(members[0].vars)), "registry")
    clean = [_drop_null(m, null_tol) for m in members]
    plan = EliminationPlan(clean, a)
    entries = max(plan.largest_factor, plan.largest_split)
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
    vertices = varset(vars_ids)
    a = _require_subset(a, set(vertices), "vertex set")
    pairs = component_boundaries(induced_graph(h, vertices), set(vertices).difference(a))
    return Hypergraph((d for _, d in pairs), allow_empty=True)


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


@lru_cache(maxsize=64)
def _schedule(scopes: tuple, order: VarSet, sizes: tuple, boundary: VarSet) -> tuple:
    """The bucket schedule of a fold of ``scopes`` along ``order`` onto
    ``boundary`` (``sizes`` holds the domain size at each position), kept
    per distinct key, as tuples, for the process: per variable of ``order``
    some factor holds, the slots it sums (input i in slot i, each step's
    fold in the next slot), the shape each takes and the summed axis; the
    slots left on ``boundary`` and their shapes there; the constant
    -ln|dom v| of the variables no factor holds; and the boundary's shape."""
    pos = {v: k for k, v in enumerate(order)}
    buckets: list[list] = [[] for _ in order]
    rest: list = []
    held: list = []  # the scope of each slot

    def place(scope: VarSet) -> None:
        first = min((pos[v] for v in scope if v in pos), default=None)
        (rest if first is None else buckets[first]).append(len(held))
        held.append(scope)

    def shapes(slots, scope: VarSet) -> tuple:
        return tuple(tuple(sizes[x] if x in held[k] else 1 for x in scope) for k in slots)

    for scope in scopes:
        place(scope)
    steps, const = [], 0.0
    for v, bucket in zip(order, buckets):
        if not bucket:  # no factor contains v: it only multiplies the sum
            const -= math.log(sizes[v])
            continue
        scope = varset(chain.from_iterable(held[k] for k in bucket))
        ax = scope.index(v)
        steps.append((tuple(bucket), shapes(bucket, scope), ax + 1))
        place(scope[:ax] + scope[ax + 1:])
    return (tuple(steps), tuple(zip(rest, shapes(rest, boundary))), const,
            tuple(sizes[v] for v in boundary))


def _fold_stack(schedule: tuple, stacks, batch: int) -> np.ndarray:
    """Bucket elimination of ``batch`` folds of one local structure at once,
    along its :func:`_schedule`.

    ``stacks[i]`` holds the table on scope i of every fold, stacked along a
    leading axis.  The order's variables are summed out of exp(-sum of the
    tables) one at a time, in log space; returns -ln of the sum on the
    boundary, one entry of the leading axis per fold.  A bucket's energy
    starts from its first table, so a step may return -0.0; the total
    starts from the constant, the one place where a fold's zeros become
    +0.0, so no returned entry is -0.0.
    """
    steps, rest, const, shape = schedule
    values = list(stacks)
    for slots, shapes, ax in steps:
        energy = reduce(np.add, (values[k].reshape((batch,) + s) for k, s in zip(slots, shapes)))
        low = energy.min(axis=ax, keepdims=True)
        values.append(low - np.log(np.exp(low - energy).sum(axis=ax, keepdims=True)))
    total = np.full((batch,) + shape, const)
    for k, s in rest:
        total += values[k].reshape((batch,) + s)
    return total


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


def _component_folds(members, plan: EliminationPlan) -> list[list]:
    """Per member of ``members`` (potentials on one registry), the folds of
    the components of ``plan`` with a non-empty boundary, as stacks: a list
    of (ranks, scopes, values), where row i of the (B, k) ``scopes`` array
    and of the (B, *shape) ``values`` stack hold the boundary and the -ln
    table of the fold of ``plan.components[ranks[i]]``.

    The components of one local structure, one set of domain sizes and one
    set of the structure's hyperedges fold as one stack across the family,
    gathered from the members' stacks by the plan's hyperedge indices; a
    member's fold skips the hyperedges it lacks and still lands on the
    whole boundary.  Each fold equals a fold of its component on its own,
    table by table.  A stack holds at most ``STATE_LIMIT`` entries in its
    largest table.  The plan must be built from ``members``.
    """
    tables, rows = plan._tables
    sources = [g.values for u in members for g in u._groups]
    out: list[list] = [[] for _ in members]
    for (_, _, factors, ranks, edges, local), groups in zip(plan._structures, plan._sizes):
        for schedule, member, at, present, entries in groups:
            cols = member[:, None], edges[at][:, present]
            src, row, rank = tables[cols], rows[cols], ranks[at]
            ids = local[at][:, list(factors[-1])]
            step = max(1, STATE_LIMIT // entries)
            for start in range(0, len(at), step):
                c = slice(start, start + step)
                total = _fold_stack(schedule, _gather(sources, src[c], row[c]), len(rank[c]))
                cuts = np.searchsorted(member[c], np.arange(len(out) + 1)).tolist()
                for m, (s, e) in enumerate(zip(cuts, cuts[1:])):
                    if s < e:
                        out[m].append((rank[c][s:e], ids[c][s:e], total[s:e]))
    return out


@lru_cache(maxsize=64)
def _pair_weights(width: int, n: int) -> np.ndarray:
    """The (width, pairs) matrix taking a row of ``width`` ids below ``n`` to
    the code left * n + right of each pair of its entries, left before right."""
    left, right = np.triu_indices(width, 1)
    column = np.arange(width)[:, None]
    return _readonly((column == left) * n + (column == right), np.intp)


def _pair_graph(a: VarSet, n: int, rows: list) -> Graph:
    """The graph on ``a`` joining every two entries of a row of one of
    ``rows``, (B, r) arrays of ids below ``n``, ascending along each row.
    One product per array codes the pairs, and one sort finds the distinct
    codes, so no tuple is made for a pair that repeats."""
    codes = [(r @ _pair_weights(r.shape[1], n)).ravel() for r in rows if r.shape[1] > 1 and len(r)]
    if not codes:
        return Graph._of(a, frozenset())
    codes = np.sort(np.concatenate(codes))
    last = codes[:-1][codes[1:] != codes[:-1]].tolist() + codes[-1:].tolist()  # last of each run
    return Graph._of(a, frozenset(divmod(c, n) for c in last))


def _innovation_tables(u: Potential, null_tol: float, folds: list) -> Potential:
    """Innovations of ``u`` from its ``folds`` (its entry of
    :func:`_component_folds`, every fold on its component's whole boundary,
    which may be wider than what ``u`` alone induces when the plan is built
    for a family), as one potential: a table per innovation scope, kept in
    stacks.

    The folded tables are summed per boundary in ``plan.components`` order
    (their ranks) and then split, so the result does not depend on how the
    folds were stacked.  The split makes every innovation normalized; a
    property test checks :func:`~margraph.potentials.is_normalized` on it.
    """
    parts = [p for ranks, scopes, values in folds
             for p in _anchored_parts(u.vars, scopes, values, ranks)]
    return Potential._from_parts(u.vars, _split(_sum_parts(parts)), null_tol)


def innovations(u: Potential, a, null_tol: float = NULL_TOL) -> list[Innovation]:
    """All non-null innovations created by marginalizing ``u`` onto ``a``.

    Innovations exist only on non-empty subsets of the boundary sets of the
    eliminated components; each is normalized by construction.  ``u`` must
    be normalized.
    """
    [u], _, plan = _checked_plan([u], a, null_tol)
    innovation = _innovation_tables(u, null_tol, _component_folds([u], plan)[0])
    return [Innovation(t.scope, t) for t in innovation.tables]


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
    # the model's graph on ``a`` joins the retained ids of each hyperedge,
    # read from the hyperedges with k of them, for each k
    rows, n = plan._rows, len(vars)
    kept = (plan._comp[rows] < 0) & (rows >= 0)
    count = kept.sum(axis=1)
    model_subgraph = _pair_graph(a, n, [rows[count == k][kept[count == k]].reshape(-1, k)
                                        for k in range(2, rows.shape[1] + 1)])

    restrictions, innovation_potentials, marginals = [restrict(m, a) for m in clean], [], []
    for m, r, folds in zip(clean, restrictions, _component_folds(clean, plan)):
        innovation = _innovation_tables(m, null_tol, folds)
        innovation_potentials.append(innovation)
        # a scope's restricted table (rank 0) comes before its innovation (rank 1)
        parts = r._parts(0) + innovation._parts(1)
        marginals.append(Potential._from_parts(vars, _sum_parts(parts), null_tol))

    # a scope disappears when its combined table is null for every member
    marginal_hypergraph = hypergraph_of(marginals, null_tol)
    innovation_scopes = hypergraph_of(innovation_potentials, null_tol)
    present, restricted = marginal_hypergraph._set, hypergraph_of(restrictions, null_tol)._set

    # the marginals hold no null rows (``Potential._from_parts`` dropped them)
    marginal_graph = _pair_graph(a, n, [g.scopes for m in marginals for g in m._groups])
    return MarginalReport(
        retained=a,
        marginal_family=PotentialFamily(marginals),
        marginal_hypergraph=marginal_hypergraph,
        added=Hypergraph._of(present - restricted),
        removed=Hypergraph._of(restricted - present),
        kept=Hypergraph._of(restricted & present),
        graphically_collapsible=marginal_graph == model_subgraph,
        parametrically_collapsible=not innovation_scopes,
        innovation_scopes=innovation_scopes,
        model_subgraph=model_subgraph,
        _marginal_graph=marginal_graph,
    )
