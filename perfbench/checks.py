"""Correctness checks for the library ops, run outside the timed region.

Each check returns a list of failure messages; an empty list means the
result is right.  The references are independent of the engine's own
decomposition: the brute-force oracle (full joint within 2^20 states,
otherwise per eliminated component over the component plus its boundary),
an explicit-inverse Schur complement, and the ``eliminate_vertex`` fold.
"""

from __future__ import annotations

import numpy as np

NULL_TOL = 1e-9         # the engine's null-table tolerance and the acceptance suite's
ROUNDING = 1e-12        # float error of the oracle and the engine, observed below 1e-13
SCHUR_TOL = 1e-8        # the acceptance suite's Frobenius-relative tolerance
NORMALIZED_TOL = 1e-12  # structural zeros of a normalized table


def fingerprint(op: str, result) -> tuple:
    """Exact summary of a result, to compare repeated runs of one input."""
    if op == "normalize-marginalize":
        family, report = result
        return (_family_key(family), _report_key(report))
    if op == "marginalize":
        return _report_key(result)
    if op == "gaussian":
        _, marginal, gamma, graph = result
        return (marginal.mean.tobytes(), marginal.precision.tobytes(), gamma.tobytes(),
                graph.vertices, graph.edges)
    if op == "pattern-graph":
        return (result.vertices, result.edges)
    if op == "graph":
        marginal, cliques = result
        return (marginal.vertices, marginal.edges, tuple(cliques))
    raise ValueError(op)


def _family_key(family) -> tuple:
    return tuple(tuple((t.scope, t.values.tobytes()) for t in m.tables) for m in family)


def _report_key(report) -> tuple:
    return (_family_key(report.marginal_family), report.marginal_hypergraph.edges,
            report.added.edges, report.removed.edges, report.kept.edges,
            report.graphically_collapsible, report.parametrically_collapsible)


def check(spec: dict, args, result) -> list[str]:
    op = spec["op"]
    if op == "marginalize":
        family, keep = args
        return check_full_oracle(family, keep, result)
    if op == "normalize-marginalize":
        raw, keep = args
        normalized, report = result
        return check_normalized(raw, normalized) + check_by_component(normalized, keep, report)
    if op == "gaussian":
        return check_gaussian(spec, result)
    if op == "pattern-graph":
        model, keep = args
        prec = np.asarray(model.precision)
        tol = 1e-9 * float(np.max(np.abs(prec)))
        rows, cols = np.nonzero(np.triu(np.abs(prec) > tol, k=1))
        return check_graph_fold(spec["n"], list(zip(rows.tolist(), cols.tolist())), keep, result)
    if op == "graph":
        marginal, cliques = result
        graph, keep = args
        fails = check_graph_fold(spec["n"], sorted(graph.edges), keep, marginal)
        expected = maximal_cliques(marginal.vertices, marginal.edges)
        if list(cliques) != expected:
            fails.append(f"{spec['name']}: cliques differ from an independent enumeration")
        return fails
    raise ValueError(op)


# ---------------------------------------------------------------------------
# Finite-domain potentials.
# ---------------------------------------------------------------------------

def _compare_marginal(expected_members: list[dict], report) -> list[str]:
    """Engine marginal tables against oracle ones, scope by scope.

    The engine drops every table whose entries are all within NULL_TOL of
    zero, so a table may be off by NULL_TOL (plus rounding) and no more; a
    scope may be in one hypergraph and not the other only when its oracle
    table sits within a factor 2 of NULL_TOL.
    """
    fails = []
    present = {}
    for k, expected in enumerate(expected_members):
        got = {t.scope: np.asarray(t.values) for t in report.marginal_family.members[k].tables}
        worst = 0.0
        for scope in set(expected) | set(got):
            size = float(np.max(np.abs(expected.get(scope, 0.0))))
            present[scope] = max(present.get(scope, 0.0), size)
            diff = np.asarray(expected.get(scope, 0.0)) - np.asarray(got.get(scope, 0.0))
            worst = max(worst, float(np.max(np.abs(diff))))
        if not worst <= NULL_TOL + ROUNDING:
            fails.append(f"member {k}: marginal tables off by {worst:.3g}")
    engine = set(report.marginal_hypergraph.edges)
    for scope, size in present.items():
        if (scope in engine) != (size > NULL_TOL) and not NULL_TOL / 2 <= size <= 2 * NULL_TOL:
            fails.append(f"scope {scope}: marginal hypergraph disagrees with the oracle")
            break
    return fails


def check_full_oracle(family, keep, report) -> list[str]:
    """Brute-force oracle over the whole joint: the normalized potential
    recovered from the exact marginal density."""
    from margraph.oracle import joint_table, marginal_table, normalized_potential_from_table

    expected = []
    for member in family:
        marg = marginal_table(joint_table(member), keep)
        recovered = normalized_potential_from_table(marg, 0.0)
        expected.append({t.scope: np.asarray(t.values) for t in recovered.tables})
    return _compare_marginal(expected, report)


def _energies(potential, states: np.ndarray) -> np.ndarray:
    total = np.zeros(len(states))
    for t in potential.tables:
        total += np.asarray(t.values)[tuple(states[:, v] for v in t.scope)]
    return total


def check_normalized(raw_family, normalized_family) -> list[str]:
    """Anchored zeros hold, and energies differ from the input's by one
    constant per member at random full assignments."""
    fails = []
    rng = np.random.default_rng(0)
    variables = raw_family.vars
    sizes = np.array([len(d) for d in variables.domains])
    states = (rng.random((64, len(sizes))) * sizes).astype(int)
    for k, (raw, norm) in enumerate(zip(raw_family, normalized_family)):
        for t in norm.tables:
            vals = np.asarray(t.values)
            for ax in range(vals.ndim):
                if np.max(np.abs(np.take(vals, 0, axis=ax)), initial=0.0) > NORMALIZED_TOL:
                    fails.append(f"member {k}: table {t.scope} is not zero at the anchor")
        gap = _energies(raw, states) - _energies(norm, states)
        scale = max(1.0, float(np.max(np.abs(_energies(raw, states)))))
        if float(np.ptp(gap)) > NULL_TOL * scale:
            fails.append(f"member {k}: normalization changed the density")
    return fails


def _eliminated_components(n: int, scopes, keep) -> list[tuple[list[int], list[int]]]:
    """(component, boundary) pairs of the eliminated set, by union-find over
    the interaction scopes."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = set(keep)
    for s in scopes:
        dropped = [v for v in s if v not in kept]
        for v in dropped[1:]:
            parent[find(v)] = find(dropped[0])
    members: dict[int, list[int]] = {}
    for v in range(n):
        if v not in kept:
            members.setdefault(find(v), []).append(v)
    bounds: dict[int, set[int]] = {root: set() for root in members}
    for s in scopes:
        roots = {find(v) for v in s if v not in kept}
        for root in roots:
            bounds[root] |= {v for v in s if v in kept}
    return [(members[r], sorted(bounds[r])) for r in sorted(members)]


def check_by_component(family, keep, report) -> list[str]:
    """Oracle per eliminated component: the marginal of each member is its
    restriction to ``keep`` plus, for every component, the normalized
    potential recovered from the component's sub-model summed over the
    component.  Components come from the family-wide interaction graph."""
    from margraph import Potential
    from margraph.oracle import joint_table, marginal_table, normalized_potential_from_table

    n = len(family.vars)
    scopes = {t.scope for m in family for t in m.tables}
    comps = _eliminated_components(n, scopes, keep)
    kept = set(keep)
    expected_members = []
    for member in family:
        expected = {t.scope: np.array(t.values) for t in member.tables if set(t.scope) <= kept}
        for comp, bound in comps:
            if not bound:
                continue
            inside = set(comp)
            sub = Potential(member.vars, [t for t in member.tables if set(t.scope) & inside])
            marg = marginal_table(joint_table(sub, comp + bound), bound)
            for t in normalized_potential_from_table(marg, 0.0).tables:
                expected[t.scope] = expected.get(t.scope, 0.0) + np.asarray(t.values)
        expected_members.append(expected)
    return _compare_marginal(expected_members, report)


# ---------------------------------------------------------------------------
# Gaussians and graphs.
# ---------------------------------------------------------------------------

def check_gaussian(spec: dict, result) -> list[str]:
    _, marginal, gamma, graph = result
    keep = list(spec["keep"])
    prec = spec["precision"]
    oracle = np.linalg.inv(np.linalg.inv(prec)[np.ix_(keep, keep)])
    norm = np.linalg.norm(oracle)
    fails = []
    rel = np.linalg.norm(marginal.precision - oracle) / norm
    if not rel <= SCHUR_TOL:
        fails.append(f"{spec['name']}: Schur complement off by {rel:.3g} (Frobenius-relative)")
    rel = np.linalg.norm(prec[np.ix_(keep, keep)] - gamma - oracle) / norm
    if not rel <= SCHUR_TOL:
        fails.append(f"{spec['name']}: innovation matrix off by {rel:.3g}")
    if not np.array_equal(marginal.mean, spec["mean"][keep]):
        fails.append(f"{spec['name']}: marginal mean is not the restricted mean")
    # An edge where the oracle entry clearly exceeds the default tolerance,
    # none where it is clearly below; entries within a factor 2 may go either way.
    tol = 1e-9 * float(np.max(np.abs(oracle)))
    pos = {v: k for k, v in enumerate(keep)}
    has = np.zeros(oracle.shape, dtype=bool)
    for a, b in graph.edges:
        has[pos[a], pos[b]] = has[pos[b], pos[a]] = True
    off = ~np.eye(len(keep), dtype=bool)
    big = (np.abs(oracle) > 2 * tol) & off
    small = (np.abs(oracle) < tol / 2) & off
    if graph.vertices != tuple(keep) or np.any(big & ~has) or np.any(small & has):
        fails.append(f"{spec['name']}: marginal graph disagrees with the oracle precision")
    return fails


def folded_marginal_edges(n: int, edges, keep) -> set:
    """Marginal graph edges by ``eliminate_vertex`` folded over each
    eliminated component's local graph (component plus boundary)."""
    from margraph import Graph, eliminate_vertex

    kept = set(keep)
    fill = {e for e in edges if e[0] in kept and e[1] in kept}
    for comp, bound in _eliminated_components(n, edges, keep):
        local_vertices = set(comp) | set(bound)
        local = Graph.from_edges(local_vertices, [
            e for e in edges if e[0] in local_vertices and e[1] in local_vertices])
        for v in comp:
            local = eliminate_vertex(local, v)
        fill |= local.edges
    return fill


def check_graph_fold(n: int, edges, keep, marginal) -> list[str]:
    expected = folded_marginal_edges(n, edges, keep)
    if marginal.vertices != tuple(keep) or marginal.edges != expected:
        return [f"graph of {n} vertices: marginal differs from the eliminate_vertex fold"]
    return []


def maximal_cliques(vertices, edges) -> list[tuple[int, ...]]:
    """Maximal cliques by Bron-Kerbosch over a degeneracy order."""
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    order = sorted(vertices, key=lambda v: (len(adj[v]), v))
    rank = {v: k for k, v in enumerate(order)}
    found = []

    def extend(r, p, x):
        if not p and not x:
            found.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            extend(r + [v], p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    for v in order:
        later = {w for w in adj[v] if rank[w] > rank[v]}
        earlier = adj[v] - later
        extend([v], later, earlier)
    return sorted(found)
