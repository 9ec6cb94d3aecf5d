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

An :class:`EliminationPlan` fixes how each component folds and refuses,
before any table is allocated, a fold or an innovation split above
``STATE_LIMIT`` entries.  A component is folded by sum-product variable
elimination in log space (Koller & Friedman, *Probabilistic Graphical
Models*, ch. 9): eliminating a variable combines only the factors that
contain it and replaces them by their log-sum over that variable, stabilized
by the smallest energy along the summed axis, so the cost follows the width
of the order, not the size of the component.

The route stays columnar, since models with many small components would
otherwise pay numpy's per-call cost per table.  The plan is the compiled model
of its structure, kept in the process's memo: besides the folds it fixes where
every fold, innovation and marginal row sits and in what order rows on one
scope add, and the model's graph on A.  A call folds the components of one
local structure as one stack across the family, then sums, splits and adds
by gathers; only which innovations and marginal tables are null depends on
the values.  Every sum runs in the order a component-by-component loop would
use, so results do not depend on the grouping, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations

import numpy as np

from .components import eliminated_components
from .errors import STATE_LIMIT, InvalidInputError, ResourceLimitError
from .graphs import (Graph, VarSet, _require_subset, _require_tolerance, component_boundaries,
                     varset)
from .potentials import (
    NULL_TOL,
    Hypergraph,
    InteractionTable,
    Potential,
    PotentialFamily,
    _distinct,
    _drop_null,
    _by_member,
    _kept,
    _member_rows,
    _readonly,
    _scope_rows,
    _split_layout,
    _split_rows,
    _sum_layout,
    _sum_rows,
    hypergraph_of,
    induced_graph,
    require_normalized,
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
    """How marginalizing onto a retained set folds the eliminated variables,
    and everything else a model structure fixes before a table value is
    read: the compiled model of that structure.

    Built eagerly from the :func:`_model_structure` of members on one
    registry, so that a plan of a family serves every member, and kept per
    distinct structure per process (``potentials._kept``), arrays read-only.
    It holds:

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
    that group.  Tuples are made only of the rows a step reads.

    A member of a family touches a subset of the plan's hyperedges, so the
    tables its fold of a component forms lie within these factor scopes.
    ``_folds`` groups each structure's (member, component) pairs by the
    domain sizes at the local positions, the anchors on the boundary and
    which of the structure's hyperedges the member has, into stacks that
    fold along one :func:`_schedule`.  A component whose boundary is empty
    adds only the normalizing constant, so :meth:`_sized` gives it no stack:
    it is never folded and counts towards no limit.

    A plan above ``STATE_LIMIT`` is refused on every call, and nothing more
    is built for it.  Otherwise, since every fold lies on its component's
    whole boundary, the rest follows from the plan, the domain sizes and the
    anchors (:meth:`_compile`), each layout's rows led by their member so
    that one gather serves the family:

    - ``_fold_sums``: the :func:`~margraph.potentials._sum_layout` of the
      folds per member and boundary, by the rank of their component;
    - ``_splits``: the :func:`~margraph.potentials._split_layout` of those
      sums into innovations, per member and sub-scope;
    - ``_marginal``: the sum layout, per member and scope, of the member's
      tables inside the retained set (rank 0) and of *every* innovation of
      their shape and anchors (rank 1).  A call adds an innovation only
      where it is not null: a null one adds as -0.0, which leaves a
      restricted table's bits as they are and, alone on its scope, is
      dropped with the marginal's null tables.  The outputs of ``_splits``
      with a shape and anchors no such table has (``_alone``) join the
      marginal as they are;
    - ``_innovation_rows`` and ``_marginal_rows``: the
      :func:`~margraph.potentials._member_rows` of ``_splits`` and
      ``_marginal``; ``_codes``, the :func:`_pair_codes` of the marginal's
      rows, those of ``_alone`` last, so the marginal graph is a mask over
      them;
    - ``restricted``, the scopes of the tables inside the retained set;
      ``model_subgraph``, the model's graph on it; and ``gathers``, the
      entries of all the layouts' gather indices.
    """

    __slots__ = ("components", "boundaries", "largest_factor", "largest_split", "restricted",
                 "model_subgraph", "gathers", "_rows", "_tables", "_comp", "_structures", "_folds",
                 "_fold_sums", "_splits", "_marginal", "_alone", "_innovation_rows",
                 "_marginal_rows", "_codes")

    def __init__(self, a: VarSet, sizes: tuple, zeros: tuple, scopes: tuple):
        groups = [(m, np.frombuffer(b, dtype=np.intp).reshape(shape))
                  for m, member in enumerate(scopes) for shape, b in member]
        rows, which = _scope_rows([s for _, s in groups])
        src = np.full((len(scopes), len(rows)), -1, dtype=np.intp)
        row = np.zeros_like(src)
        for k, ((m, _), at) in enumerate(zip(groups, which)):
            src[m, at], row[m, at] = k, np.arange(len(at))
        self._rows, self._tables = rows, (src, row)
        n = len(sizes)
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
        touch = touch[np.argsort(comp[hub[touch]], kind="stable")]
        self._structures = self._group(touch, comp[hub[touch]], inner, owner * n + bd)
        dom = np.array(sizes)
        shapes = [tuple(dom[s[0]].tolist()) for _, s in groups]
        base, ends = [], {}  # where each group sits among the groups of its table shape
        for (_, s), shape in zip(groups, shapes):
            base.append(ends.get(shape, 0))
            ends[shape] = base[-1] + len(s)
        zero = np.array(zeros)
        self._folds, self.largest_factor, self.largest_split = self._sized(dom, zero, shapes,
                                                                           np.array(base))
        self.gathers = 0
        if max(self.largest_factor, self.largest_split) <= STATE_LIMIT:
            self._compile(a, zero, groups, shapes)
        for x in chain((rows, src, row, comp), *(s[3:] for s in self._structures),
                       *(f[3:] for f in self._folds)):
            x.setflags(write=False)  # every later call with this structure shares the plan

    def _scopes(self, j) -> list[VarSet]:
        """The hyperedges at indices ``j``, as tuples of ids."""
        rows = self._rows[j]
        return [tuple(r[:k]) for r, k in zip(rows.tolist(), (rows >= 0).sum(axis=1).tolist())]

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

    def _sized(self, dom: np.ndarray, zero: np.ndarray, shapes: list,
               base: np.ndarray) -> tuple[list, int, int]:
        """The folds as stacks: per structure, its (member, component) pairs
        grouped by the domain sizes at the local positions, the anchors on
        the boundary and the structure's hyperedges the member has, members
        ascending, and cut so that a stack holds at most ``STATE_LIMIT``
        entries in its largest table, as (the fold's :func:`_schedule`, the
        boundary's anchors, the table shape of each input, and per fold the
        row of each input among the members' tables of its shape, its
        member, its component's rank in ``components`` and its boundary);
        the entries of the largest table the folds form; and those of the
        largest innovation split.  The one check for an empty boundary: such
        a structure gets no stack and counts no entries."""
        tables, rows = self._tables
        has = tables >= 0
        folds, largest, split = [], 1, 0
        for scopes, order, factors, ranks, edges, local in self._structures:
            if not factors[-1]:
                continue  # never folded (see the class docstring)
            width, bd = local.shape[1], local[:, list(factors[-1])]
            fixed = np.hstack((dom[local], zero[bd]))
            keys = np.empty((len(has), len(edges), fixed.shape[1] + edges.shape[1]), dtype=np.intp)
            keys[..., :fixed.shape[1]], keys[..., fixed.shape[1]:] = fixed, has[:, edges]
            keys = keys.reshape(-1, keys.shape[2])
            reps, which = _distinct(keys)
            which = which.reshape(len(has), len(edges))
            for j, key in enumerate(keys[reps].tolist()):
                row, zp = key[:width], tuple(key[width:fixed.shape[1]])
                entries = max(math.prod(row[p] for p in f) for f in factors)
                largest = max(largest, entries)
                split = max(split, math.prod(row[p] + 1 for p in factors[-1]) - 1)
                present = tuple(p for p, x in enumerate(key[fixed.shape[1]:]) if x)
                schedule = _schedule(tuple(scopes[p] for p in present), order, tuple(row),
                                     factors[-1])
                member, at = np.nonzero(which == j)
                cols = member[:, None], edges[at][:, present]
                slots = tuple(shapes[k] for k in tables[cols][0].tolist())
                fold = base[tables[cols]] + rows[cols], member, ranks[at], bd[at]
                step = max(1, STATE_LIMIT // entries)
                folds += [(schedule, zp, slots, *(x[start:start + step] for x in fold))
                          for start in range(0, len(at), step)]
        return folds, largest, split

    def _compile(self, a: VarSet, zero: np.ndarray, groups: list, shapes: list) -> None:
        """The layouts of a call's sums and split, and the report's sets and
        graphs (see the class docstring); ``groups`` holds (member, scopes)
        per group of the members' tables, ``shapes`` their table shapes."""
        n, kept = len(zero), self._comp < 0
        self._fold_sums = _sum_layout([len(f[3]) for f in self._folds], [
            (k, zp, schedule[-1], np.hstack((member[:, None], ids)), rank, np.arange(len(rank)))
            for k, (schedule, zp, _, _, member, rank, ids) in enumerate(self._folds)])
        self._splits = _split_layout([(zp, shape, s, r) for zp, shape, *_, s, r in self._fold_sums])
        rows = [(k, tuple(zero[s[0]].tolist()), shape, np.hstack((np.full((len(at), 1), m), s[at])),
                 np.zeros(len(at), np.intp), at)  # the tables inside the retained set
                for k, ((m, s), shape) in enumerate(zip(groups, shapes))
                for at in [np.flatnonzero(kept[s].all(axis=1))] if len(at)]
        inside = {(zp, shape) for _, zp, shape, *_ in rows}
        self._alone = [q for q, (zp, shape, *_) in enumerate(self._splits)
                       if (zp, shape) not in inside]
        rows += [(len(groups) + q, zp, shape, s, np.ones(len(s), np.intp), np.arange(len(s)))
                 for q, (zp, shape, *_, s, _) in enumerate(self._splits) if q not in self._alone]
        self._marginal = _sum_layout([len(s) for _, s in groups] +
                                     [len(s) for *_, s, _ in self._splits], rows)
        self._innovation_rows, self._marginal_rows = (
            _member_rows(layout, len(self._tables[0])) for layout in (self._splits, self._marginal))
        self._codes = [_pair_codes(s, n) for _, s, _ in self._marginal_rows + [
            self._innovation_rows[q] for q in self._alone]]
        self.restricted = frozenset(self._scopes(kept[self._rows].all(axis=1)))
        ids = np.where(kept[self._rows], self._rows, -1)  # the retained ids of each hyperedge
        both = _pair_codes(ids >= 0, 2) == 3  # the pairs whose two ids are retained
        self.model_subgraph = _pair_graph(a, n, [_pair_codes(ids, n)[both]])
        self.gathers = sum(take.size + sum(at.size for _, at in depths)
                           for layout in (self._fold_sums, self._splits, self._marginal)
                           for *_, take, depths, _, _ in layout)


def _ordered(scopes: tuple, tau: VarSet) -> tuple:
    """The min-fill order of the local structure with hyperedges ``scopes``
    and component ``tau`` (positions), and the scope of every factor its
    fold forms followed by its boundary, the positions outside ``tau``, as
    tuples.  An empty boundary is never folded, so it gets no order."""
    boundary = varset(set(chain(*scopes)).difference(tau))
    order, factors = _min_fill_order(scopes, tau) if boundary else ((), [])
    return order, tuple(factors) + (boundary,)


def _cut(flat: list, sizes: np.ndarray) -> tuple[VarSet, ...]:
    """``flat`` cut into consecutive tuples of ``sizes``."""
    ends = np.cumsum(sizes).tolist()
    return tuple(tuple(flat[s:e]) for s, e in zip([0] + ends, ends))


def _model_structure(members, a: VarSet) -> tuple:
    """Everything a plan reads of ``members`` and ``a``, by value: ``a``, the
    domain size and the position of 0 of every registry variable and, per
    member, each group's scope array as (shape, bytes), in group order."""
    vars = members[0].vars
    return (a, tuple(map(len, vars.domains)), vars.zero_indices,
            tuple(tuple((g.scopes.shape, g.scopes.tobytes()) for g in m._groups) for m in members))


def _checked_plan(members, a, null_tol: float) -> tuple[list, VarSet, EliminationPlan]:
    """``members`` (normalized, on one registry) without their null tables,
    ``a`` as a checked id set, and the plan of those tables, refused when
    its largest table would exceed ``STATE_LIMIT`` entries."""
    _require_tolerance(null_tol, "null_tol")
    for m in members:
        require_normalized(m)
    a = _require_subset(a, range(len(members[0].vars)), "registry")
    clean = [_drop_null(m, null_tol) for m in members]
    plan = _kept(EliminationPlan, _model_structure(clean, a), lambda plan: plan.gathers)
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


def _schedule(scopes: tuple, order: VarSet, sizes: tuple, boundary: VarSet) -> tuple:
    """The bucket schedule of a fold of ``scopes`` along ``order`` onto
    ``boundary`` (``sizes`` holds the domain size at each position), as
    tuples: per variable of ``order`` some factor holds, the slots it sums
    (input i in slot i, each step's fold in the next slot), the shape each
    takes and the summed axis; the slots left on ``boundary`` and their
    shapes there; the constant -ln|dom v| of the variables no factor holds;
    and the boundary's shape."""
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


def _component_folds(members, plan: EliminationPlan) -> list[np.ndarray]:
    """The folds of ``members`` (potentials on one registry, those the plan
    is built from) along ``plan``: per stack of ``plan._folds``, the -ln
    table of each of its folds on its component's boundary.

    A stack gathers its inputs from the members' tables, those of one shape
    end to end; a member's fold skips the hyperedges it lacks and still
    lands on the whole boundary.  Each fold equals a fold of its component
    on its own, table by table.  A stack holds at most ``STATE_LIMIT``
    entries in its largest table.
    """
    like: dict[tuple, list] = {}
    for g in chain.from_iterable(u._groups for u in members):
        like.setdefault(g.values.shape[1:], []).append(g.values)
    tables = {shape: np.concatenate(v) if len(v) > 1 else v[0] for shape, v in like.items()}
    return [_fold_stack(schedule, [tables[s][i] for s, i in zip(slots, idx.T)], len(idx))
            for schedule, _, slots, idx, *_ in plan._folds]


def _pair_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Per row of the (B, r) ``rows`` (ids below ``n``, ascending along each
    row), the code left * n + right of each pair of its entries, read-only."""
    left, right = np.array(list(combinations(range(rows.shape[1]), 2)), np.intp).reshape(-1, 2).T
    return _readonly(rows[:, left] * n + rows[:, right], np.intp)


def _pair_graph(a: VarSet, n: int, codes: list) -> Graph:
    """The graph on ``a`` of the pairs coded in the arrays ``codes`` (see
    :func:`_pair_codes`).  One sort finds the distinct codes, so no tuple is
    made for a pair that repeats."""
    codes = np.sort(np.concatenate([c.ravel() for c in codes] + [np.zeros(0, np.intp)]))
    last = codes[:-1][codes[1:] != codes[:-1]].tolist() + codes[-1:].tolist()  # last of each run
    return Graph._of(a, frozenset(divmod(c, n) for c in last))


def _innovation_tables(plan: EliminationPlan, members) -> list[np.ndarray]:
    """The innovations of ``members`` (those the plan is built from), across
    the family: per output of ``plan._splits``, the stack of its pieces.

    The folds are summed per member and boundary in ``plan.components``
    order (their ranks) and then split, so the result does not depend on how
    the folds were stacked.  The split makes every innovation normalized; a
    property test checks :func:`~margraph.potentials.is_normalized` on it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _by_member refuses inf and NaN
        sums = _sum_rows(plan._fold_sums, _component_folds(members, plan))
        return _split_rows(plan._splits, [(zp, v) for (zp, *_), v in zip(plan._fold_sums, sums)])


def innovations(u: Potential, a, null_tol: float = NULL_TOL) -> list[Innovation]:
    """All non-null innovations created by marginalizing ``u`` onto ``a``.

    Innovations exist only on non-empty subsets of the boundary sets of the
    eliminated components; each is normalized by construction.  ``u`` must
    be normalized.
    """
    [u], _, plan = _checked_plan([u], a, null_tol)
    [groups], _ = _by_member(1, plan._innovation_rows, _innovation_tables(plan, [u]), null_tol,
                             u.vars.labels)
    return [Innovation(t.scope, t) for t in Potential._of(u.vars, groups).tables]


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
    pieces = _innovation_tables(plan, clean)
    innovation, alive = _by_member(len(clean), plan._innovation_rows, pieces, null_tol, vars.labels)
    for v, k in zip(pieces, alive):
        v[~k] = -0.0  # a null innovation adds as -0.0 (see EliminationPlan)
    with np.errstate(over="ignore", invalid="ignore"):  # _by_member refuses inf and NaN
        sums = _sum_rows(plan._marginal, [g.values for m in clean for g in m._groups] + pieces)
    sums, nonnull = _by_member(len(clean), plan._marginal_rows, sums, null_tol, vars.labels)
    marginals = [Potential._of(vars, s + [g[q] for q in plan._alone])
                 for s, g in zip(sums, innovation)]
    innovation = [Potential._of(vars, g) for g in innovation]

    # a scope disappears when its combined table is null for every member
    marginal_hypergraph = hypergraph_of(marginals, null_tol)
    innovation_scopes = hypergraph_of(innovation, null_tol)
    present, restricted = marginal_hypergraph._set, plan.restricted
    marginal_graph = _pair_graph(a, len(vars), [
        c[k] for c, k in zip(plan._codes, nonnull + [alive[q] for q in plan._alone])])
    return MarginalReport(
        retained=a,
        marginal_family=PotentialFamily(marginals),
        marginal_hypergraph=marginal_hypergraph,
        added=Hypergraph._of(present - restricted),
        removed=Hypergraph._of(restricted - present),
        kept=Hypergraph._of(restricted & present),
        graphically_collapsible=marginal_graph == plan.model_subgraph,
        parametrically_collapsible=not innovation_scopes,
        innovation_scopes=innovation_scopes,
        model_subgraph=plan.model_subgraph,
        _marginal_graph=marginal_graph,
    )
