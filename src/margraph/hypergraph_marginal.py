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
    _normalized_pieces,
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

    @property
    def marginal_potential(self) -> Potential:
        """The marginal potential of a one-member family."""
        if len(self.marginal_family) != 1:
            raise InvalidInputError(
                "marginal_potential is only defined for one-member families; "
                "use marginal_family")
        return self.marginal_family.members[0]

    def marginal_graph(self) -> Graph:
        return induced_graph(self.marginal_hypergraph, self.retained)


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


def _largest_table(vars: Variables, scopes) -> int:
    return max((math.prod(vars.sizes(s)) for s in scopes), default=1)


def _require_within_limit(entries: int) -> None:
    if entries > STATE_LIMIT:
        raise ResourceLimitError(
            f"elimination needs a table of {entries} entries, "
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
      ties to the smallest id;
    - ``factor_scopes``: the scope of every table the folds form (product
      factors and boundary tables), from which :meth:`largest_factor`
      predicts the largest allocation.
    """

    __slots__ = ("graph", "components", "boundaries", "incidence", "orders", "factor_scopes")

    def __init__(self, h: Hypergraph, vertices, a):
        vertices = varset(vertices)
        a = varset(a)
        if not set(a) <= set(vertices):
            raise InvalidInputError(f"ids {sorted(set(a) - set(vertices))} outside the vertex set")
        self.graph = induced_graph(h, vertices)
        incidence: dict[int, list[VarSet]] = {v: [] for v in vertices}
        for e in h:
            for v in e:
                incidence[v].append(e)
        self.incidence = {v: tuple(es) for v, es in incidence.items()}
        pairs = component_boundaries(self.graph, set(vertices) - set(a))
        self.components = tuple(tau for tau, _ in pairs)
        self.boundaries: dict[VarSet, VarSet] = dict(pairs)
        self.orders: dict[VarSet, tuple[int, ...]] = {}
        factor_scopes: set[VarSet] = set(self.boundaries.values())
        for tau in self.components:
            order, factors = _min_fill_order(self.touching(tau), tau)
            self.orders[tau] = order
            factor_scopes.update(factors)
        self.factor_scopes = tuple(sorted(factor_scopes))

    def touching(self, tau) -> tuple[VarSet, ...]:
        """Hyperedges that meet ``tau``, in lexicographic order."""
        return tuple(sorted(set(chain.from_iterable(self.incidence[v] for v in tau))))

    def largest_factor(self, vars: Variables) -> int:
        """Entries of the largest table the folds form."""
        return _largest_table(vars, self.factor_scopes)


def _checked_plan(h: Hypergraph, vars: Variables, a) -> EliminationPlan:
    plan = EliminationPlan(h, vars.all_ids(), a)
    _require_within_limit(plan.largest_factor(vars))
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


def _drop_null_tables(u: Potential, null_tol: float) -> Potential:
    return Potential(u.vars, (t for t in u.tables if np.max(np.abs(t.values)) > null_tol))


def _fold(vars: Variables, tables, order) -> tuple[VarSet, np.ndarray]:
    """Sum the variables of ``order`` out of exp(-sum of ``tables``), one at
    a time and in log space (bucket elimination).

    Returns the scope left over and -ln of the sum on it.
    """
    pos = {v: k for k, v in enumerate(order)}
    buckets: list[list] = [[] for _ in order]
    rest: list = []

    def place(scope: VarSet, values: np.ndarray) -> None:
        first = min((pos[v] for v in scope if v in pos), default=None)
        (rest if first is None else buckets[first]).append((scope, values))

    for t in tables:
        place(t.scope, t.values)
    const = 0.0
    for v, bucket in zip(order, buckets):
        if not bucket:  # no factor contains v: it only multiplies the sum
            const -= math.log(len(vars.domain(v)))
            continue
        scope = varset(chain.from_iterable(s for s, _ in bucket))
        energy = sum(_aligned(values, s, scope) for s, values in bucket)
        ax = scope.index(v)
        low = energy.min(axis=ax, keepdims=True)
        folded = low - np.log(np.exp(low - energy).sum(axis=ax, keepdims=True))
        place(scope[:ax] + scope[ax + 1:], np.squeeze(folded, axis=ax))
    bd = varset(chain.from_iterable(s for s, _ in rest))
    total = np.full(vars.sizes(bd), const)
    for s, values in rest:
        total += _aligned(values, s, bd)
    return bd, total


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
        inside = set(tau)
        tables = [t for t in u.tables if inside.intersection(t.scope)]
        order, factors = _min_fill_order([t.scope for t in tables], tau)
        bd = varset(set().union(*(t.scope for t in tables)) - inside)
        _require_within_limit(_largest_table(u.vars, factors + [bd]))
    else:
        tables = [t for s in plan.touching(tau) if (t := u.table_for(s)) is not None]
        order = plan.orders[tau]
    return InteractionTable(*_fold(u.vars, tables, order))


def boundary_aggregate(u: Potential, components, d) -> InteractionTable:
    """Sum of the folded component tables whose boundary is exactly ``d``."""
    d = varset(d)
    parts = []
    for tau in components:
        ct = component_potential(u, tau)
        if ct.scope == d:
            parts.append(ct.values)
    if not parts:
        raise InvalidInputError(f"{set(d) or set()} is not the boundary of any given component")
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return InteractionTable(d, total)


def _innovation_tables(u: Potential, plan: EliminationPlan,
                       null_tol: float) -> list[Innovation]:
    """Innovations of ``u`` along ``plan`` (its boundaries may be wider than
    what ``u`` alone induces, e.g. when the plan is built for a family)."""
    agg: dict[VarSet, np.ndarray] = {}
    for tau in plan.components:
        d = plan.boundaries[tau]
        if not d:
            continue  # constant factor, absorbed by normalization
        ct = component_potential(u, tau, plan)
        embedded = np.broadcast_to(_aligned(ct.values, ct.scope, d), u.vars.sizes(d))
        agg[d] = agg.get(d, 0.0) + embedded
    acc: dict[VarSet, np.ndarray] = {}
    for d, vals in agg.items():
        for b, tbl in _normalized_pieces(u.vars, d, vals):
            if b in acc:
                acc[b] = acc[b] + tbl
            else:
                acc[b] = tbl
    out = [Innovation(b, InteractionTable(b, v))
           for b, v in sorted(acc.items()) if np.max(np.abs(v)) > null_tol]
    assert is_normalized(Potential(u.vars, (i.table for i in out)))
    return out


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
    u = _drop_null_tables(u, null_tol)
    return _innovation_tables(u, _checked_plan(hypergraph_of(u, null_tol), u.vars, a), null_tol)


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

    clean = [_drop_null_tables(m, null_tol) for m in fam]
    h = hypergraph_of(clean, null_tol)
    plan = _checked_plan(h, vars, a)
    h_restricted = h.restrict(a)

    marginals = []
    any_innovation_scopes: set[VarSet] = set()
    parametric = True
    # combined[scope][k] = member k's restricted table + innovation on scope
    combined: dict[VarSet, list[np.ndarray]] = {}

    def _add(scope: VarSet, k: int, values: np.ndarray) -> None:
        per_member = combined.setdefault(scope, [None] * len(clean))
        if per_member[k] is None:
            per_member[k] = np.array(values)
        else:
            per_member[k] = per_member[k] + values

    for k, m in enumerate(clean):
        for t in restrict(m, a).tables:
            _add(t.scope, k, t.values)
        member_innovations = _innovation_tables(m, plan, null_tol)
        if member_innovations:
            parametric = False
        for innov in member_innovations:
            any_innovation_scopes.add(innov.scope)
            _add(innov.scope, k, innov.table.values)

    for k in range(len(clean)):
        tables = []
        for scope in sorted(combined):
            vals = combined[scope][k]
            if vals is not None and np.max(np.abs(vals)) > null_tol:
                tables.append(InteractionTable(scope, vals))
        marginals.append(Potential(vars, tables))

    def _null_for_every_member(scope: VarSet) -> bool:
        return all(vals is None or np.max(np.abs(vals)) <= null_tol
                   for vals in combined[scope])

    removed = Hypergraph(e for e in h_restricted if _null_for_every_member(e))
    kept = h_restricted.difference(removed)
    added = Hypergraph(s for s in any_innovation_scopes
                       if s not in h_restricted and not _null_for_every_member(s))
    marginal_hypergraph = kept.union(added)
    assert marginal_hypergraph == hypergraph_of(marginals, null_tol)

    graphical = induced_graph(marginal_hypergraph, a) == subgraph(plan.graph, a)
    return MarginalReport(
        retained=a,
        marginal_family=PotentialFamily(marginals),
        marginal_hypergraph=marginal_hypergraph,
        added=added,
        removed=removed,
        kept=kept,
        graphically_collapsible=graphical,
        parametrically_collapsible=parametric,
        innovation_scopes=Hypergraph(any_innovation_scopes),
    )
