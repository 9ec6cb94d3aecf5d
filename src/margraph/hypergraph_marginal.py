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
:mod:`margraph.potentials`.  The plan computes one min-fill order per local
structure: the hyperedges touching a component, relabeled by position in
the sorted union of their variables (relabeling keeps the order of ids, so
smallest-id tie-breaking maps back exactly).  Components whose touching
tables and order coincide under that relabeling (and whose domain sizes
agree) fold as stacks gathered from the potential's stacks, each stack
holding at most ``STATE_LIMIT`` entries in its largest table.  The folds
are summed per boundary, ranked by component in ``plan.components`` order,
and split as stacks, one gather per sub-scope shape, into a columnar
potential per member; its marginal is its restriction plus those
innovations, summed per scope in that order.  Every sum runs in the order
a component-by-component loop would use, so results do not depend on the
grouping, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import STATE_LIMIT, InvalidInputError, ResourceLimitError
from .graphs import Graph, VarSet, Variables, component_boundaries, subgraph, varset
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

    - ``graph``: the graph the hypergraph induces on ``vertices``;
    - ``components``: the connectivity components of the eliminated set,
      ordered by smallest member, and their ``boundaries`` in ``graph``;
    - ``incidence``: the hyperedges containing each variable;
    - ``orders``: a greedy min-fill elimination order of each component,
      ties to the smallest id, computed once per local structure;
    - ``factors``: per component, the scope of every product factor its
      fold forms along its order, from which :meth:`fold_entries` and
      :meth:`largest_factor` predict the largest allocation;
      :meth:`largest_split` predicts the entries the innovation split of
      the widest boundary makes.

    A member of a family touches a subset of the plan's hyperedges, so the
    tables its fold of a component forms lie within these factor scopes.
    """

    __slots__ = ("graph", "components", "boundaries", "incidence", "orders", "factors",
                 "_local", "_sized_for", "_sizes")

    def __init__(self, h: Hypergraph, vertices, a):
        vertices = varset(vertices)
        a = varset(a)
        if not set(a) <= set(vertices):
            raise InvalidInputError(f"ids {sorted(set(a) - set(vertices))} outside the vertex set")
        self._index(h, vertices)
        self._order(component_boundaries(self.graph, set(vertices) - set(a)))

    @classmethod
    def _one_component(cls, h: Hypergraph, vertices, tau: VarSet) -> "EliminationPlan":
        """A plan that folds ``tau`` as one component, connected or not."""
        plan = cls.__new__(cls)
        plan._index(h, varset(vertices))
        plan._order([(tau, varset(set(chain.from_iterable(plan.touching(tau))) - set(tau)))])
        return plan

    def _index(self, h: Hypergraph, vertices: VarSet) -> None:
        self.graph = induced_graph(h, vertices)
        incidence: dict[int, list[VarSet]] = {v: [] for v in vertices}
        for e in h:
            for v in e:
                incidence[v].append(e)
        self.incidence = {v: tuple(es) for v, es in incidence.items()}

    def _order(self, pairs) -> None:
        """Components, boundaries and one min-fill order per local structure.

        ``_local[tau]`` keeps the hyperedges touching tau, their sorted
        union ``local``, the hyperedges and the order relabeled to positions
        in ``local``, and the relabeled factor scopes followed by the
        relabeled boundary.
        """
        self.components = tuple(tau for tau, _ in pairs)
        self.boundaries: dict[VarSet, VarSet] = dict(pairs)
        self.orders: dict[VarSet, tuple[int, ...]] = {}
        self.factors: dict[VarSet, list[VarSet]] = {}
        self._local: dict[VarSet, tuple] = {}
        self._sized_for: Variables | None = None
        self._sizes: dict[VarSet, tuple[tuple[int, ...], int]] = {}
        found: dict[tuple, tuple] = {}
        for tau in self.components:
            touching = self.touching(tau)
            local = varset(chain(tau, *touching))
            at = {v: k for k, v in enumerate(local)}
            key = (tuple(tuple(at[v] for v in s) for s in touching), tuple(at[v] for v in tau))
            if key not in found:
                order, factors = _min_fill_order(*key)
                boundary = tuple(p for p in range(len(local)) if p not in key[1])
                found[key] = order, tuple(factors) + (boundary,)
            order, factors = found[key]
            self.orders[tau] = tuple(local[p] for p in order)
            self.factors[tau] = [tuple(local[p] for p in f) for f in factors[:-1]]
            self._local[tau] = (touching, local, key[0], order, factors)

    def touching(self, tau) -> tuple[VarSet, ...]:
        """Hyperedges that meet ``tau``, in lexicographic order."""
        return tuple(sorted(set(chain.from_iterable(self.incidence[v] for v in tau))))

    def _sized(self, vars: Variables) -> dict[VarSet, tuple[tuple[int, ...], int]]:
        """Per component, the domain sizes at its local positions and the
        entries of the largest table its fold forms (once per local structure
        and sizes), for the registry in use (a :class:`Variables` is immutable)."""
        if self._sized_for is not vars:
            self._sized_for, self._sizes, largest = vars, {}, {}
            for tau, (_, local, _, _, factors) in self._local.items():
                sizes = vars.sizes(local)
                if (factors, sizes) not in largest:
                    largest[factors, sizes] = max(math.prod(sizes[p] for p in f) for f in factors)
                self._sizes[tau] = sizes, largest[factors, sizes]
        return self._sizes

    def fold_entries(self, vars: Variables, tau: VarSet) -> int:
        """Entries of the largest table the fold of component ``tau`` forms,
        its boundary table included."""
        return self._sized(vars)[tau][1]

    def largest_factor(self, vars: Variables) -> int:
        """Entries of the largest table the folds form."""
        return max((entries for _, entries in self._sized(vars).values()), default=1)

    def largest_split(self, vars: Variables) -> int:
        """Entries of the largest innovation split: a boundary d splits into
        pieces on its non-empty subsets, prod(|dom v| + 1) - 1 entries."""
        return max((math.prod(n + 1 for n in vars.sizes(d)) - 1
                    for d in set(self.boundaries.values())), default=0)


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
        energy = sum(_aligned(values, s, scope) for s, values in bucket)
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


def _gather(rows) -> np.ndarray:
    """Stack of the (group, row) tables ``rows`` of a potential."""
    first = rows[0][0]
    if all(g is first for g, _ in rows):
        return first.values[[k for _, k in rows]]
    return np.stack([g.values[k] for g, k in rows])


def _component_folds(u: Potential, plan: EliminationPlan) -> list:
    """The folds of the components of ``plan`` with a non-empty boundary,
    as stacks: a list of (ranks, scopes, values), where row i of the (B, k)
    ``scopes`` array and of the (B, *shape) ``values`` stack hold the scope
    and the -ln table of the fold of ``plan.components[ranks[i]]``.

    Components of one local structure (:func:`_local_structure` of the
    tables of ``u`` touching them, along the plan's order) fold as one
    stack, gathered row by row from the stacks of ``u``; each fold equals
    :func:`component_potential` on its component.  A stack holds at most
    ``STATE_LIMIT`` entries in its largest table, so stacking never
    allocates more than the plan's guard allows one fold.
    """
    rows_of = u._rows()
    groups: dict[tuple, list] = {}
    for rank, tau in enumerate(plan.components):
        if not plan.boundaries[tau]:
            continue  # constant factor, absorbed by normalization
        touching, local, scopes, order, _ = plan._local[tau]
        rows = [rows_of.get(s) for s in touching]
        if None in rows:  # a family member without some of the plan's hyperedges
            present = [s for s, row in zip(touching, rows) if row is not None]
            rows = [row for row in rows if row is not None]
            structure, local = _local_structure(u.vars, present, plan.orders[tau])
        else:
            structure = (scopes, order, plan._sized(u.vars)[tau][0])
        groups.setdefault(structure, []).append((rank, local, rows))
    out = []
    for structure, members in groups.items():
        widest = max(plan.fold_entries(u.vars, plan.components[r]) for r, _, _ in members)
        step = max(1, STATE_LIMIT // widest)
        for start in range(0, len(members), step):
            chunk = members[start:start + step]
            stacks = [_gather([rows[i] for _, _, rows in chunk])
                      for i in range(len(structure[0]))]
            bd, total = _fold_stack(structure, stacks, len(chunk))
            ids = np.array([local for _, local, _ in chunk], dtype=np.intp)
            out.append((np.array([r for r, _, _ in chunk]), ids[:, list(bd)], total))
    return out


def _innovation_tables(u: Potential, plan: EliminationPlan, null_tol: float) -> Potential:
    """Innovations of ``u`` along ``plan`` (its boundaries may be wider than
    what ``u`` alone induces, e.g. when the plan is built for a family), as
    one potential: a table per innovation scope, kept in stacks.

    The folded tables are summed per boundary in ``plan.components`` order
    and then split, so the result does not depend on how the folds were
    stacked.
    """
    parts = []
    for ranks, scopes, values in _component_folds(u, plan):
        ds = [plan.boundaries[plan.components[r]] for r in ranks]
        if all(len(d) == scopes.shape[1] for d in ds):
            parts += _anchored_parts(u.vars, scopes, values, ranks)
            continue
        # a member without some of the plan's tables can fold onto part of
        # a boundary; such folds are broadcast to the whole boundary
        for k, d in enumerate(ds):
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
    return [Innovation(t.scope, t) for t in _innovation_tables(u, plan, null_tol).tables]


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
    for m in clean:
        innovation = _innovation_tables(m, plan, null_tol)
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
    model_subgraph = subgraph(plan.graph, a)
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
