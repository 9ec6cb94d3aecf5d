"""Shared generators and brute-force oracles for the test suite.

Everything here is deliberately primitive (edge scans, matrix squaring,
subset enumeration, double loops) so that agreement with the library is
meaningful evidence.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain, combinations, product

import numpy as np

from margraph import (
    GaussianModel,
    Graph,
    Hypergraph,
    InteractionTable,
    InvalidInputError,
    Potential,
    Variables,
    boundary,
    completed_edge_set,
    component_boundaries,
    energy_grid,
    induced_graph,
    subgraph,
    varset,
)
from margraph.components import adjacency, component_labels
from margraph.gaussian import _solve_lower
from margraph.hypergraph_marginal import (
    EliminationPlan,
    _checked_plan,
    _component_folds,
    _fold_stack,
    _innovation_tables,
    _min_fill_order,
    _model_structure,
    _schedule,
)
from margraph.potentials import _by_member, _split_layout, _split_rows, _sum_layout, _sum_rows


def random_graph(rng: np.random.Generator, n: int, p: float = 0.3) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(range(n), edges)


def binary_vars(n: int, prefix: str = "V") -> Variables:
    return Variables([f"{prefix}{k}" for k in range(1, n + 1)])


def random_normalized_potential(rng: np.random.Generator, n: int,
                                n_scopes: int | None = None,
                                max_scope: int = 3,
                                lo: float = 0.25, hi: float = 1.5) -> Potential:
    """Random binary potential, normalized by construction: entries with any
    zero coordinate are 0, the rest are uniform +-[lo, hi]."""
    variables = binary_vars(n)
    if n_scopes is None:
        n_scopes = int(rng.integers(1, max(2, 2 * n)))
    scopes = set()
    for _ in range(n_scopes):
        size = int(rng.integers(1, min(max_scope, n) + 1))
        scopes.add(varset(rng.choice(n, size=size, replace=False).tolist()))
    tables = []
    for scope in sorted(scopes):
        shape = (2,) * len(scope)
        vals = rng.uniform(lo, hi, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        for ax in range(len(scope)):
            idx = [slice(None)] * len(scope)
            idx[ax] = 0
            vals[tuple(idx)] = 0.0
        if np.max(np.abs(vals)) == 0.0:
            continue
        tables.append(InteractionTable(scope, vals))
    return Potential(variables, tables)


def induced_scope_graph(u: Potential) -> Graph:
    """Graph joining every pair that shares an interaction scope."""
    edges = set()
    for t in u.tables:
        edges |= set(combinations(t.scope, 2))
    return Graph.from_edges(u.vars.all_ids(), edges)


# ---------------------------------------------------------------------------
# Brute-force oracles.
# ---------------------------------------------------------------------------

def neighbor_scan(g: Graph, v: int) -> tuple[int, ...]:
    out = set()
    for a, b in g.edges:
        if a == v:
            out.add(b)
        elif b == v:
            out.add(a)
    return varset(out)


def reachability_components(g: Graph) -> list[tuple[int, ...]]:
    """Components from the transitive closure of adjacency, by repeated
    boolean matrix squaring."""
    vs = list(g.vertices)
    pos = {v: k for k, v in enumerate(vs)}
    n = len(vs)
    reach = np.eye(n, dtype=bool)
    for a, b in g.edges:
        reach[pos[a], pos[b]] = reach[pos[b], pos[a]] = True
    while True:
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    seen: set[int] = set()
    parts = []
    for k in range(n):
        if k in seen:
            continue
        members = {vs[i] for i in range(n) if reach[k, i]}
        seen |= {pos[v] for v in members}
        parts.append(varset(members))
    return sorted(parts, key=lambda p: p[0])


def reverse_cuthill_mckee_by_queue(g: Graph, components) -> tuple[list[int], list[list[int]]]:
    """Reverse Cuthill-McKee order of each of ``components`` of ``g``, by
    ascending smallest member, with a plain queue: start at the member of
    least degree (least id on ties); each vertex taken from the queue
    appends its unvisited neighbours by (degree, id).  Returns the orders
    concatenated and the size of every component's breadth-first levels."""
    nbrs = {v: neighbor_scan(g, v) for v in g.vertices}

    def key(v):
        return len(nbrs[v]), v

    out, levels = [], []
    for comp in sorted(components, key=min):
        start = min(comp, key=key)
        depth, queue, order = {start: 0}, deque([start]), []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted((w for w in nbrs[v] if w not in depth), key=key):
                depth[w] = depth[v] + 1
                queue.append(w)
        out.extend(reversed(order))
        widths = [0] * (depth[order[-1]] + 1)
        for v in order:
            widths[depth[v]] += 1
        levels.append(widths)
    return out, levels


def marginal_graph_by_boundaries(g: Graph, a) -> Graph:
    """Reference graph operator: the subgraph on ``a`` plus, for every
    eliminated component (found by :func:`reachability_components`), its
    boundary found by a full edge scan (:func:`boundary`) and completed."""
    a = varset(a)
    fill = set(subgraph(g, a).edges)
    dropped = varset(set(g.vertices) - set(a))
    if dropped:
        for comp in reachability_components(subgraph(g, dropped)):
            fill |= completed_edge_set(boundary(g, comp))
    return Graph(a, frozenset(fill))


def brute_force_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Maximal complete sets by scanning all 2^n subsets."""
    vs = list(g.vertices)
    edges = set(g.edges)

    def complete(sub) -> bool:
        return all(tuple(sorted(p)) in edges for p in combinations(sub, 2))

    completes = [frozenset(sub)
                 for r in range(1, len(vs) + 1)
                 for sub in combinations(vs, r) if complete(sub)]
    maximal = [s for s in completes if not any(s < t for t in completes)]
    return sorted(varset(s) for s in maximal)


def energy_by_loops(u: Potential, values) -> float:
    """Term-by-term summation with explicit indexing."""
    total = 0.0
    for t in u.tables:
        idx = []
        for v in t.scope:
            dom = list(u.vars.domain(v))
            idx.append(dom.index(float(values[v])))
        total += float(t.values[tuple(idx)])
    return total


def chain_innovation_closed_forms(a12, a23, a45, a56) -> dict:
    """Hand-derived innovation tables for the base chain model with the
    retained set {V1, V3, V5}, keyed by scope."""
    v = np.array([0.0, 1.0])
    v1 = -np.log(np.exp(-a12 * v - a12) + 1) + np.log(np.exp(-a12) + 1)
    v3 = -np.log(np.exp(-a23 * v - a12) + 1) + np.log(np.exp(-a12) + 1)
    g1, g3 = np.meshgrid(v, v, indexing="ij")
    v13 = (-np.log(np.exp(-a12 * g1 - a23 * g3 - a12) + 1)
           + np.log(np.exp(-a12 * g1 - a12) + 1)
           + np.log(np.exp(-a23 * g3 - a12) + 1)
           - np.log(np.exp(-a12) + 1))
    v5 = (-np.log(np.exp(-a45 * v) + 1) + np.log(2.0)
          - np.log(np.exp(-a56 * v) + 1) + np.log(2.0))
    return {(0,): v1, (2,): v3, (0, 2): v13, (4,): v5}


def folded_component_by_loops(u: Potential, tau, bd) -> np.ndarray:
    """Double-loop evaluation of the component fold over its boundary."""
    tau = varset(tau)
    bd = varset(bd)
    touching = [t for t in u.tables if set(t.scope) & set(tau)]
    out = np.zeros(u.vars.sizes(bd))
    for b_idx in product(*(range(len(u.vars.domain(v))) for v in bd)):
        total = 0.0
        for t_idx in product(*(range(len(u.vars.domain(v))) for v in tau)):
            pos = dict(zip(bd, b_idx))
            pos.update(zip(tau, t_idx))
            e = 0.0
            for t in touching:
                e += float(t.values[tuple(pos[v] for v in t.scope)])
            total += np.exp(-e)
        out[b_idx] = -np.log(total)
    return out


def relabeled(scopes, order) -> tuple[tuple, tuple, tuple]:
    """``scopes`` and ``order`` relabeled to positions in ``local``, the
    sorted union of ``order`` and the scopes, and ``local`` itself.

    The relabeling keeps the order of ids, so a fold of the relabeled
    structure (with the domain sizes at those positions) does the same
    arithmetic as a fold of the original.
    """
    local = varset(chain(order, *scopes))
    at = {v: k for k, v in enumerate(local)}
    return tuple(tuple(at[v] for v in s) for s in scopes), tuple(at[v] for v in order), local


def fold_tables(vars: Variables, tables, order) -> tuple[tuple[int, ...], np.ndarray]:
    """Sum the variables of ``order`` out of exp(-sum of ``tables``), one at
    a time and in log space, by the library's bucket elimination on a batch
    of one.  Returns the scope left over, the scopes' variables outside
    ``order``, and -ln of the sum on it."""
    scopes, order, local = relabeled([t.scope for t in tables], order)
    bd = tuple(p for p in range(len(local)) if p not in order)
    schedule = _schedule(scopes, order, vars.sizes(local), bd)
    total = _fold_stack(schedule, [t.values[None] for t in tables], 1)
    return tuple(local[p] for p in bd), total[0]


def component_potential(u: Potential, tau, plan=None) -> InteractionTable:
    """Reference component fold: the tables of ``u`` that touch ``tau``,
    one by one in scope order, folded along ``plan``'s order for the
    component tau or, where the plan gives none (without a plan, or for a
    component with an empty boundary), along a min-fill order of their
    scopes.  The entry at a boundary assignment b is
    -ln sum_t exp(-sum of those tables at (b, t)), over the joint
    assignments t of tau; a variable no table touches contributes -ln(its
    domain size)."""
    tau = varset(tau)
    if not tau:
        raise InvalidInputError("component must be non-empty")
    n = len(u.vars)
    if tau[0] < 0 or tau[-1] >= n:
        raise InvalidInputError(f"ids {[v for v in tau if not 0 <= v < n]} outside the registry")
    tables = [t for t in u.tables if set(t.scope) & set(tau)]
    planned = orders(plan) if plan else {}
    order = planned[tau] if tau in planned else _min_fill_order([t.scope for t in tables], tau)[0]
    return InteractionTable(*fold_tables(u.vars, tables, order))


def boundary_aggregate(u: Potential, components, d) -> InteractionTable:
    """Sum of the folded component tables whose boundary is exactly ``d``,
    each component folded on its own by ``component_potential``."""
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


def dense_component_potential(u: Potential, tau) -> InteractionTable:
    """Reference component fold: one dense energy grid over the component
    plus its boundary, summed out by a single log-sum-exp."""
    inside = set(varset(tau))
    touching = [t for t in u.tables if set(t.scope) & inside]
    bd = varset(set().union(*(t.scope for t in touching)) - inside)
    full = varset(set(bd) | inside)
    grid = energy_grid(Potential(u.vars, touching), full)
    tau_axes = tuple(k for k, v in enumerate(full) if v in inside)
    return InteractionTable(bd, np.asarray(-logsumexp(-grid, tau_axes)))


def logsumexp(x: np.ndarray, axis) -> np.ndarray:
    """log(sum(exp(x))) over ``axis``, shifted by the maximum for stability."""
    top = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(top, axis=axis) + np.log(np.sum(np.exp(x - top), axis=axis))


def zero_coord_mask(shape: tuple[int, ...], zero_positions) -> np.ndarray:
    """Entries of a grid with some coordinate at its anchor, axis by axis."""
    mask = np.zeros(shape, dtype=bool)
    for ax, z in enumerate(zero_positions):
        idx = [slice(None)] * len(shape)
        idx[ax] = z
        mask[tuple(idx)] = True
    return mask


# ---------------------------------------------------------------------------
# Table-by-table references for the stacked table kernels.
# ---------------------------------------------------------------------------

def subscope_transform(values: np.ndarray, zero_positions) -> np.ndarray:
    """Anchored finite-difference transform of one table along every axis:
    the entry at an assignment whose non-anchor coordinates form C is the
    normalized piece on C at that assignment."""
    out = np.array(values, dtype=float)
    for ax, z in enumerate(zero_positions):
        ref = np.take(out, [z], axis=ax)
        new = out - ref
        idx = [slice(None)] * out.ndim
        idx[ax] = z
        new[tuple(idx)] = out[tuple(idx)]
        out = new
    return out


def normalized_pieces(vars: Variables, scope, values: np.ndarray):
    """Split one table over ``scope`` into normalized tables on every
    non-empty subset of ``scope``, in subset order (the constant is dropped)."""
    zp = tuple(vars.zero_index(v) for v in scope)
    m = subscope_transform(values, zp)
    for k in range(1, len(scope) + 1):
        for sub in combinations(range(len(scope)), k):
            idx = tuple(slice(None) if ax in sub else zp[ax] for ax in range(len(scope)))
            on_anchor = zero_coord_mask(m[idx].shape, tuple(zp[ax] for ax in sub))
            yield tuple(scope[ax] for ax in sub), np.where(on_anchor, 0.0, m[idx])


def split_by_tables(vars: Variables, scoped) -> dict:
    """Pieces of each (scope, values) table, table by table, summed per sub-scope."""
    acc: dict = {}
    for scope, values in scoped:
        for sub_scope, piece in normalized_pieces(vars, scope, values):
            acc[sub_scope] = acc[sub_scope] + piece if sub_scope in acc else piece
    return acc


def is_normalized_by_tables(u: Potential, tol: float) -> bool:
    """Every table zero within ``tol`` wherever a coordinate is at its anchor."""
    for t in u.tables:
        mask = zero_coord_mask(t.values.shape, tuple(u.vars.zero_index(v) for v in t.scope))
        if np.max(np.abs(t.values[mask])) > tol:
            return False
    return True


def innovations_by_components(u: Potential, plan, null_tol: float) -> dict:
    """Innovation tables by scope: each component folded on its own by
    ``component_potential``, the folds summed per boundary in plan order,
    and the sums split table by table."""
    agg: dict = {}
    for tau in plan.components:
        d = plan.boundaries[tau]
        if not d:
            continue
        ct = component_potential(u, tau, plan)
        sizes = dict(zip(ct.scope, ct.values.shape))
        aligned = ct.values.reshape([sizes.get(v, 1) for v in d])
        agg[d] = agg.get(d, 0.0) + np.broadcast_to(aligned, u.vars.sizes(d))
    acc = split_by_tables(u.vars, agg.items())
    return {b: v for b, v in sorted(acc.items()) if np.max(np.abs(v)) > null_tol}


def report_sets_by_set_algebra(family, a, marginals, null_tol: float) -> dict:
    """The five scope sets and the two edge sets of a ``marginalize_hypergraph``
    report, as plain sets of tuples: the hyperedges of the members'
    non-null tables, the scopes of each member's innovations along the
    family's plan and the non-null scopes of ``marginals`` (the report's
    marginal potentials), combined by set algebra."""
    clean, a, plan = _checked_plan(family.members, a, null_tol)
    inside = set(a)
    edges = {t.scope for m in clean for t in m.tables}
    restricted = {e for e in edges if inside.issuperset(e)}
    innovation_scopes = {t.scope for u in innovation_potentials(plan, clean, null_tol)
                         for t in u.tables}
    present = {t.scope for m in marginals for t in m.tables if t.max_abs > null_tol}
    return {
        "marginal_hypergraph": present,
        "added": (innovation_scopes - restricted) & present,
        "removed": restricted - present,
        "kept": restricted & present,
        "innovation_scopes": innovation_scopes,
        "model_subgraph": {p for e in edges for p in combinations([v for v in e if v in inside], 2)},
        "marginal_graph": {p for s in present for p in combinations(s, 2)},
    }


def model_subgraph_by_tuples(plan, a) -> Graph:
    """The model's graph on ``a`` from tuples: the retained ids of each
    hyperedge of ``plan`` that holds two or more of them, as a hypergraph,
    and the graph :func:`induced_graph` joins from it."""
    rows, inside = plan._rows, set(a)
    shared = ((plan._comp[rows] < 0) & (rows >= 0)).sum(axis=1) >= 2
    return induced_graph(Hypergraph(tuple(v for v in e if v in inside)
                                    for e in plan._scopes(shared)), a)


def build_plan(members, a) -> EliminationPlan:
    """A new :class:`~margraph.hypergraph_marginal.EliminationPlan` of
    ``members`` (potentials on one registry) and the retained ids ``a``,
    past the plans the library keeps per process."""
    return EliminationPlan(*_model_structure(members, varset(a)))


def innovation_potentials(plan, members, null_tol: float) -> list:
    """Per member of ``members`` (those ``plan`` is built from), its
    innovations that are not null within ``null_tol``, as one potential."""
    groups, _ = _by_member(len(members), plan._innovation_rows,
                           _innovation_tables(plan, members), null_tol)
    return [Potential._of(members[0].vars, g) for g in groups]


def arrays_in(*roots) -> list:
    """Every array reachable from ``roots`` through tuples, lists and dicts."""
    arrays, todo = [], list(roots)
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            arrays.append(x)
        elif isinstance(x, (tuple, list, dict)):
            todo += x.values() if isinstance(x, dict) else x
    return arrays


def member_folds(members, plan) -> list[list]:
    """The folds of :func:`~margraph.hypergraph_marginal._component_folds`
    per member of ``members``, as (ranks, boundaries, values) stacks: row i
    holds the fold of ``plan.components[ranks[i]]`` on the boundary ids in
    row i of ``boundaries``."""
    out = [[] for _ in members]
    for (*_, member, rank, ids), total in zip(plan._folds, _component_folds(members, plan)):
        cuts = np.searchsorted(member, np.arange(len(members) + 1)).tolist()
        for m, (s, e) in enumerate(zip(cuts, cuts[1:])):
            if s < e:
                out[m].append((rank[s:e], ids[s:e], total[s:e]))
    return out


def sum_parts(parts) -> list:
    """The library's ordered sums on hand-made (zp, scopes, values, rank)
    parts: the rows that share a scope, summed in rank order, as parts."""
    layout = _sum_layout([len(r) for *_, r in parts], [
        (k, zp, v.shape[1:], np.asarray(s), np.asarray(r, np.intp), np.arange(len(r)))
        for k, (zp, s, v, r) in enumerate(parts)])
    sums = _sum_rows(layout, [v for _, _, v, _ in parts])
    return [(zp, scopes, v, rank) for (zp, *_, scopes, rank), v in zip(layout, sums)]


def split_parts(parts) -> list:
    """The library's Mobius split on hand-made (zp, scopes, values, rank)
    parts, as rows of one member: each row's pieces, summed per sub-scope
    by rank, as parts."""
    layout = _split_layout([(zp, v.shape[1:], np.hstack((np.zeros((len(s), 1), np.intp), s)),
                             np.asarray(r, np.intp)) for zp, s, v, r in parts])
    sums = _split_rows(layout, [(zp, v) for zp, _, v, _ in parts])
    return [(zp, scopes[:, 1:], v, rank) for (zp, *_, scopes, rank), v in zip(layout, sums)]


def edges(plan) -> tuple:
    """The hyperedges of an :class:`~margraph.hypergraph_marginal.EliminationPlan`,
    in lexicographic order."""
    return tuple(plan._scopes(slice(None)))


def orders(plan) -> dict:
    """The elimination order of each component of ``plan``, an
    :class:`~margraph.hypergraph_marginal.EliminationPlan` or a
    :class:`ReferencePlan`, that has a non-empty boundary: the others are
    never folded and get no order."""
    if isinstance(plan, ReferencePlan):
        return plan.orders
    return {plan.components[r]: tuple(row)
            for _, order, fs, ranks, _, local in plan._structures if fs[-1]
            for r, row in zip(ranks.tolist(), local[:, list(order)].tolist())}


def factors(plan) -> dict:
    """Per component of an :class:`~margraph.hypergraph_marginal.EliminationPlan`
    that has a non-empty boundary, the scope of every product factor its
    fold forms along its order."""
    return {plan.components[r]: [tuple(row[p] for p in f) for f in fs[:-1]]
            for _, _, fs, ranks, _, local in plan._structures if fs[-1]
            for r, row in zip(ranks.tolist(), local.tolist())}


class ReferencePlan:
    """The elimination plan of the hypergraph ``h`` on ``vertices``,
    computed component by component in plain Python: the induced graph, an
    incidence map and a depth-first search give the components and
    boundaries, and each component's hyperedges, relabeled to positions in
    the sorted union of their variables, key one min-fill order per local
    structure; a component with an empty boundary is never folded and gets
    none.  The reference for
    :class:`~margraph.hypergraph_marginal.EliminationPlan`: ``orders`` and
    ``factors`` hold what the functions of those names read from a plan,
    and ``largest_factor`` and ``largest_split`` take the registry."""

    def __init__(self, h, vertices, a):
        vertices = varset(vertices)
        graph = induced_graph(h, vertices)
        incidence: dict[int, list] = {v: [] for v in vertices}
        for e in h:
            for v in e:
                incidence[v].append(e)
        self.incidence = {v: tuple(es) for v, es in incidence.items()}
        pairs = component_boundaries(graph, set(vertices) - set(varset(a)))
        self.components = tuple(tau for tau, _ in pairs)
        self.boundaries = dict(pairs)
        self.orders, self.factors, self._local = {}, {}, {}
        found: dict[tuple, tuple] = {}
        for tau in self.components:
            if not self.boundaries[tau]:
                continue  # never folded
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
            self._local[tau] = local, factors

    def touching(self, tau) -> tuple:
        return tuple(sorted(set(chain.from_iterable(self.incidence[v] for v in tau))))

    def fold_entries(self, vars: Variables, tau) -> int:
        local, factors = self._local[tau]
        sizes = vars.sizes(local)
        return max(math.prod(sizes[p] for p in f) for f in factors)

    def largest_factor(self, vars: Variables) -> int:
        """Over the components with a non-empty boundary, the only ones folded."""
        return max((self.fold_entries(vars, tau) for tau in self.components
                    if self.boundaries[tau]), default=1)

    def largest_split(self, vars: Variables) -> int:
        return max((math.prod(n + 1 for n in vars.sizes(d)) - 1
                    for d in set(self.boundaries.values())), default=0)


# ---------------------------------------------------------------------------
# Gaussian references.
# ---------------------------------------------------------------------------

def innovation_by_neighbour_sum(m: GaussianModel, a) -> np.ndarray:
    """Innovation matrix entry by entry, diagonal included: entry (i, j) sums
    rho_rs * P[i, r] * P[s, j] over eliminated r adjacent to i and eliminated
    s adjacent to j, with rho the explicit inverse of the eliminated block."""
    a = varset(a)
    z = varset(set(range(m.n)) - set(a))
    p = np.asarray(m.precision)
    rho = np.linalg.inv(p[np.ix_(z, z)]) if z else np.zeros((0, 0))
    out = np.zeros((len(a), len(a)))
    for ki, i in enumerate(a):
        for kj, j in enumerate(a):
            for rk, r in enumerate(z):
                for sk, s in enumerate(z):
                    if p[i, r] != 0.0 and p[s, j] != 0.0:
                        out[ki, kj] += rho[rk, sk] * p[i, r] * p[s, j]
    return out


def innovation_by_dense_scan(m: GaussianModel, a) -> np.ndarray:
    """The innovation matrix as the library built it before the model kept
    P's pattern: the eliminated rows' pattern read off P densely, boundaries
    by one ``.any`` per component.  The stacks, solves and scatter are the
    library's, so the two must agree bit for bit."""
    a = varset(a)
    k, p = len(a), m.precision
    rows = np.asarray(varset(set(range(m.n)) - set(a)), dtype=np.intp)
    cols = np.asarray(a)
    pattern = p[rows] != 0
    touches = pattern[:, cols]
    stacks: dict[tuple[int, int], list] = {}
    edges = divmod(np.flatnonzero(pattern[:, rows]), len(rows))
    label = component_labels(adjacency(len(rows), *edges))
    for root in np.flatnonzero(label == np.arange(len(rows))):  # by smallest member
        tau = np.flatnonzero(label == root)
        d = np.flatnonzero(touches[tau].any(axis=0))
        stacks.setdefault((len(tau), len(d)), []).append((rows[tau], d))
    gamma = np.zeros(k * k)
    for (_, width), members in stacks.items():
        taus = np.array([tau for tau, _ in members])
        ds = np.array([d for _, d in members])
        chol = np.linalg.cholesky(p[taus[:, :, None], taus[:, None, :]])
        if width:
            y = _solve_lower(chol, p[taus[:, :, None], cols[ds][:, None, :]])
            terms = np.matmul(y.transpose(0, 2, 1), y).ravel()
            np.add.at(gamma, (ds[:, :, None] * k + ds[:, None, :]).ravel(), terms)
    return gamma.reshape(k, k)


def pairwise_innovation(m: GaussianModel, a, i: int, j: int) -> float:
    """Off-diagonal entry (i, j) of :func:`innovation_by_neighbour_sum`."""
    a = varset(a)
    if i == j:
        raise InvalidInputError("pairwise innovation is defined for distinct variables")
    if i not in a or j not in a:
        raise InvalidInputError(f"{i} and {j} must belong to the retained set")
    return float(innovation_by_neighbour_sum(m, a)[a.index(i), a.index(j)])


def edges_by_loops(matrix: np.ndarray, ids, t: float) -> set:
    """Pairs of ``ids`` whose off-diagonal entry exceeds ``t``, by a double loop."""
    edges = set()
    for ki in range(len(ids)):
        for kj in range(ki + 1, len(ids)):
            if abs(matrix[ki, kj]) > t:
                edges.add((ids[ki], ids[kj]))
    return edges
