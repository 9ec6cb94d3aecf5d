"""The elimination plan and the log-space component fold.

The fold is checked against the dense reference fold in ``helpers`` and
against the brute-force oracle; the plan's size guard must refuse an
oversized elimination before allocating anything.
"""

import math
import sys
import threading
import time
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from margraph import (
    STATE_LIMIT,
    InteractionTable,
    Potential,
    PotentialFamily,
    ResourceLimitError,
    Variables,
    energy_grid,
    hypergraph_of,
    induced_graph,
    innovations,
    is_normalized,
    joint_table,
    marginal_table,
    marginalize_hypergraph,
    normalize_potential,
    varset,
)
from margraph import hypergraph_marginal
from margraph.hypergraph_marginal import (
    EliminationPlan,
    _checked_plan,
    _component_folds,
    _min_fill_order,
    _model_structure,
)
from margraph.potentials import (
    NORMALIZED_TOL,
    NULL_TOL,
    SPLIT_PLAN_CACHE_ENTRIES,
    _memo,
    _normalize_layout,
    _scope_rows,
    _split_plan,
)

from fixture_models import grid_potential, grid_retained
from helpers import (
    ReferencePlan,
    arrays_in,
    binary_vars,
    build_plan,
    component_potential,
    dense_component_potential,
    edges,
    factors,
    fold_tables,
    innovation_potentials,
    innovations_by_components,
    is_normalized_by_tables,
    kept,
    member_folds,
    memo_ids,
    model_subgraph_by_tuples,
    orders,
    report_sets_by_set_algebra,
)

FOLD_TOL = 1e-12
ORACLE_TOL = 1e-9


def _random_potential(rng: np.random.Generator, variables: Variables,
                      max_scope: int = 3) -> Potential:
    """Normalized form of random raw tables on random scopes."""
    n = len(variables)
    tables = {}
    for _ in range(int(rng.integers(1, 2 * n + 1))):
        size = int(rng.integers(1, min(max_scope, n) + 1))
        scope = varset(rng.choice(n, size=size, replace=False).tolist())
        tables[scope] = InteractionTable(
            scope, rng.uniform(-1.5, 1.5, size=variables.sizes(scope)))
    return normalize_potential(Potential(variables, tables.values()))


@st.composite
def models(draw, max_vars: int = 12):
    """(normalized potential, retained set, rng) on binary and ternary
    variables; ternary ones anchor at a middle value."""
    n = draw(st.integers(1, max_vars))
    ternary = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    variables = Variables([f"V{k}" for k in range(n)],
                          [(-1.0, 0.0, 2.5) if t else (0.0, 1.0) for t in ternary])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keep = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    return _random_potential(rng, variables), varset(keep), rng


def _plan(u: Potential, keep) -> EliminationPlan:
    return build_plan([u], keep)


def _folds_by_component(members, plan: EliminationPlan) -> list[dict]:
    """The stacked folds of each of ``members``, folded together, as
    (scope, values) per component, in ``plan.components`` order; no
    component may fold twice."""
    out = []
    for stacks in member_folds(members, plan):
        folds = {}
        for ranks, scopes, values in stacks:
            for r, scope, vals in zip(ranks, scopes.tolist(), values):
                assert plan.components[r] not in folds
                folds[plan.components[r]] = (tuple(scope), vals)
        out.append({tau: folds[tau] for tau in plan.components if tau in folds})
    return out


def _innovations(members, plan: EliminationPlan) -> list[dict]:
    """The innovation tables of each of ``members``, folded together."""
    return [{t.scope: t.values for t in u.tables}
            for u in innovation_potentials(plan, members, NULL_TOL)]


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class TestFoldAgainstDenseReference:
    @settings(max_examples=60, deadline=None)
    @given(models())
    def test_plan_fold_matches_dense_fold(self, model):
        u, keep, _ = model
        plan = _plan(u, keep)
        for tau in plan.components:
            got = component_potential(u, tau, plan)
            ref = dense_component_potential(u, tau)
            assert got.scope == ref.scope
            assert _max_diff(got.values, ref.values) <= FOLD_TOL

    @settings(max_examples=60, deadline=None)
    @given(models())
    def test_fold_of_any_variable_set_matches_dense_fold(self, model):
        u, keep, _ = model  # keep doubles as an arbitrary, possibly disconnected, set
        got = component_potential(u, keep)
        ref = dense_component_potential(u, keep)
        assert got.scope == ref.scope
        assert _max_diff(got.values, ref.values) <= FOLD_TOL

    @settings(max_examples=60, deadline=None)
    @given(models(), st.randoms(use_true_random=False))
    def test_shuffled_order_gives_the_same_table(self, model, random):
        u, keep, _ = model
        plan = _plan(u, keep)
        for tau, order in orders(plan).items():
            tables = [t for t in u.tables if set(t.scope) & set(tau)]
            shuffled = list(order)
            random.shuffle(shuffled)
            scope, values = fold_tables(u.vars, tables, order)
            scope2, values2 = fold_tables(u.vars, tables, shuffled)
            assert scope == scope2
            assert _max_diff(values, values2) <= FOLD_TOL


@st.composite
def block_families(draw):
    """A family over blocks of variables: each block is a copy of one of a
    few random motifs (a small potential plus the positions it retains), so
    eliminated components repeat one local structure across copies, and a
    random pair table sometimes links two blocks.  Further members drop
    tables at random, so their structures differ from block to block."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    motifs = []
    for _ in range(draw(st.integers(1, 3))):
        size = int(rng.integers(2, 5))
        sizes = rng.integers(2, 4, size=size).tolist()
        scopes = {(k,) for k in range(size)}
        scopes |= {varset(rng.choice(size, size=int(rng.integers(2, min(3, size) + 1)),
                                     replace=False).tolist()) for _ in range(size)}
        keep = rng.choice(size, size=int(rng.integers(1, size)), replace=False).tolist()
        motifs.append((sizes, sorted(scopes), keep))
    blocks = [motifs[int(rng.integers(len(motifs)))] for _ in range(draw(st.integers(1, 6)))]
    domains, scopes, keep = [], [], []
    for sizes, motif_scopes, motif_keep in blocks:
        base = len(domains)
        domains += [tuple(float(i - 1) for i in range(n)) for n in sizes]
        scopes += [tuple(base + v for v in s) for s in motif_scopes]
        keep += [base + v for v in motif_keep]
    n = len(domains)
    if n > 2 and rng.random() < 0.5:
        scopes.append(varset(rng.choice(n, size=2, replace=False).tolist()))
    variables = Variables([f"V{k}" for k in range(n)], domains)
    members = []
    for k in range(draw(st.integers(1, 3))):
        kept = [s for s in scopes if k == 0 or rng.random() < 0.7]
        members.append(Potential(variables, [
            InteractionTable(s, rng.uniform(-1.5, 1.5, size=variables.sizes(s)))
            for s in sorted(set(kept))]))
    family = PotentialFamily(normalize_potential(m) for m in members)
    return family, varset(keep)


@st.composite
def many_component_families(draw):
    """The shapes of many small eliminated components: a chain keeping every
    third variable or a random tree, each vertex with at most two children,
    keeping the even depths; binary or ternary, with one to three members
    on the same scopes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        scopes = [(k, k + 1) for k in range(n - 1)]
        keep = range(0, n, 3)
    else:
        parent, slots, depth = [-1], [0, 0], [0]
        for k in range(1, n):
            at = int(rng.integers(len(slots)))
            parent.append(slots[at])
            depth.append(depth[parent[k]] + 1)
            slots[at] = slots[-1]
            slots.pop()
            slots += [k, k]
        scopes = sorted((parent[k], k) for k in range(1, n))
        keep = [k for k in range(n) if depth[k] % 2 == 0]
    domain = (-1.0, 0.0, 1.0) if draw(st.booleans()) else (0.0, 1.0)
    variables = Variables([f"V{k}" for k in range(n)], [domain] * n)
    scopes += [(k,) for k in range(n)]
    family = PotentialFamily(normalize_potential(Potential(variables, [
        InteractionTable(s, rng.uniform(-1.5, 1.5, size=variables.sizes(s))) for s in scopes]))
        for _ in range(draw(st.integers(1, 3))))
    return family, varset(keep)


# one-member models, families of repeated blocks and many small components
plan_cases = st.one_of(models().map(lambda m: (PotentialFamily([m[0]]), m[1])),
                       block_families(), many_component_families())


@st.composite
def null_table_families(draw):
    """A plan case with a copy of its first member added, and with each
    table of each member zeroed or scaled below ``NULL_TOL`` at random, so
    that members differ in which of their tables are null."""
    family, keep = draw(plan_cases)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return PotentialFamily(
        Potential(family.vars, [InteractionTable(t.scope, t.values * rng.choice(
            (0.0, 1e-12, 1.0), p=(0.15, 0.15, 0.7))) for t in m.tables])
        for m in family.members + family.members[:1]), keep


class TestStackedFolds:
    @settings(max_examples=60, deadline=None)
    @given(block_families())
    def test_stacked_folds_match_component_potential_bit_for_bit(self, case):
        family, keep = case
        plan = build_plan(family.members, keep)
        for member, folds in zip(family, _folds_by_component(family.members, plan)):
            assert list(folds) == [tau for tau in plan.components if plan.boundaries[tau]]
            for tau, (scope, values) in folds.items():
                # every fold lies on the plan's boundary; a member without
                # some of the tables folds onto part of it, broadcast
                ref = component_potential(member, tau, plan)
                d = plan.boundaries[tau]
                sizes = dict(zip(ref.scope, ref.values.shape))
                wide = np.broadcast_to(ref.values.reshape([sizes.get(v, 1) for v in d]),
                                       member.vars.sizes(d))
                assert scope == d
                assert values.shape == wide.shape
                assert values.tobytes() == wide.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(block_families())
    def test_members_without_some_tables_fold_through_the_plan_structures(self, case):
        # no structure is rebuilt for a member that lacks some hyperedges
        family, keep = case
        plan = build_plan(family.members, keep)
        has = plan._tables[0] >= 0
        assume(any(not has[:, edges].all() for *_, edges, _ in plan._structures))
        with mock.patch.object(hypergraph_marginal, "_schedule", side_effect=AssertionError):
            folds = member_folds(family.members, plan)
        for stacks in folds:
            for ranks, scopes, _ in stacks:
                for r, scope in zip(ranks.tolist(), scopes.tolist()):
                    assert tuple(scope) == plan.boundaries[plan.components[r]]

    @settings(max_examples=60, deadline=None)
    @given(block_families())
    def test_innovations_match_the_component_by_component_route_bit_for_bit(self, case):
        family, keep = case
        plan = build_plan(family.members, keep)
        for member, got in zip(family, _innovations(family.members, plan)):
            ref = innovations_by_components(member, plan, NULL_TOL)
            assert list(got) == list(ref)
            for scope, values in ref.items():
                assert got[scope].tobytes() == values.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(plan_cases)
    def test_every_innovation_potential_is_normalized(self, case):
        # the split makes normalized pieces; this holds it for the engine,
        # which does not check it on each call
        family, keep = case
        clean, _, plan = _checked_plan(family.members, keep, NULL_TOL)
        for innovation in innovation_potentials(plan, clean, NULL_TOL):
            assert is_normalized(innovation)
            assert is_normalized_by_tables(innovation, NORMALIZED_TOL)

    def test_folds_of_one_boundary_sum_in_plan_order_across_stacks(self):
        # five components hang off the retained vertex 0: leaves 1, 4, 7 and
        # two-variable chains 2-3 and 5-6, so the sum onto (0,) interleaves
        # two stacks and must still run in plan order
        rng = np.random.default_rng(57)
        scopes = [(0, 1), (0, 2), (2, 3), (0, 4), (0, 5), (5, 6), (0, 7)]
        raw = [InteractionTable(s, rng.uniform(-3.0, 3.0, (2, 2)) * 10.0 ** rng.integers(-2, 3))
               for s in scopes]
        u = normalize_potential(Potential(binary_vars(8), raw))
        plan = _plan(u, (0,))
        assert [plan.boundaries[tau] for tau in plan.components] == [(0,)] * 5
        assert len(member_folds([u], plan)[0]) == 2
        [got] = _innovations([u], plan)
        ref = innovations_by_components(u, plan, NULL_TOL)
        assert list(got) == list(ref) == [(0,)]
        assert got[(0,)].tobytes() == ref[(0,)].tobytes()

    def test_components_of_one_local_structure_share_one_fold(self, monkeypatch):
        # a chain keeping every third variable: the ten eliminated pairs
        # between two retained variables all look alike
        n = 31
        rng = np.random.default_rng(31)
        raw = [InteractionTable((k,), rng.uniform(-1.5, 1.5, 2)) for k in range(n)]
        raw += [InteractionTable((k, k + 1), rng.uniform(-1.5, 1.5, (2, 2)))
                for k in range(n - 1)]
        u = normalize_potential(Potential(binary_vars(n), raw))
        plan = _plan(u, range(0, n, 3))
        batches = []
        fold_stack = hypergraph_marginal._fold_stack

        def counting(schedule, stacks, batch):
            batches.append(batch)
            return fold_stack(schedule, stacks, batch)

        monkeypatch.setattr(hypergraph_marginal, "_fold_stack", counting)
        _component_folds([u], plan)
        assert batches == [10]
        # a family folds every member's copies of the structure in one stack
        negated = Potential(u.vars, [InteractionTable(t.scope, -t.values) for t in u.tables])
        batches.clear()
        family = [u, negated, u]
        _component_folds(family, build_plan(family, range(0, n, 3)))
        assert batches == [30]
        # a member without the singleton tables folds its ten in a stack of its own
        pairs = Potential(u.vars, [t for t in u.tables if len(t.scope) == 2])
        batches.clear()
        family = [u, negated, pairs]
        _component_folds(family, build_plan(family, range(0, n, 3)))
        assert sorted(batches) == [10, 20]


class TestMarginalAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(models())
    def test_family_marginal_density_matches_brute_force(self, model):
        u, keep, rng = model
        # the second member keeps a subset of the scopes, so its own
        # boundaries can be narrower than the family plan's
        kept = [InteractionTable(t.scope, -t.values) for t in u.tables if rng.random() < 0.6]
        family = PotentialFamily([u, Potential(u.vars, kept)])
        rep = marginalize_hypergraph(family, keep)
        for member, marginal in zip(family, rep.marginal_family):
            grid = energy_grid(marginal, keep)
            dens = np.exp(-(grid - grid.min()))
            dens /= dens.sum()
            oracle = marginal_table(joint_table(member), keep).probs
            assert np.max(np.abs(dens - oracle) / oracle) <= ORACLE_TOL

    def test_long_chain_keeping_its_ends_matches_transfer_matrices(self):
        n = 40
        rng = np.random.default_rng(4040)
        raw = [InteractionTable((k,), rng.uniform(-1.5, 1.5, 2)) for k in range(n)]
        raw += [InteractionTable((k, k + 1), rng.uniform(-1.5, 1.5, (2, 2)))
                for k in range(n - 1)]
        u = normalize_potential(Potential(binary_vars(n), raw))
        rep = marginalize_hypergraph(u, (0, n - 1))

        def table(scope):
            t = u.table_for(scope)
            return np.zeros((2,) * len(scope)) if t is None else t.values

        # exact marginal of the ends: a rescaled product of Boltzmann matrices
        prod = np.diag(np.exp(-table((0,))))
        for k in range(n - 1):
            prod = prod @ np.exp(-(table((k, k + 1)) + table((k + 1,))[None, :]))
            prod /= prod.max()
        expected = prod / prod.sum()
        grid = energy_grid(rep.marginal_potential, (0, n - 1))
        dens = np.exp(-(grid - grid.min()))
        dens /= dens.sum()
        assert np.max(np.abs(dens - expected) / expected) <= ORACLE_TOL


class TestPlan:
    def test_chain_component_order_boundary_and_largest_factor(self):
        n = 8
        pairs = [InteractionTable((k, k + 1), np.array([[0.0, 0.0], [0.0, 0.5]]))
                 for k in range(n - 1)]
        u = Potential(binary_vars(n), pairs)
        plan = _plan(u, (0, n - 1))
        tau = tuple(range(1, n - 1))
        assert plan.components == (tau,)
        assert plan.boundaries[tau] == (0, n - 1)
        # every vertex of the path has fill 1; ties go to the smallest id
        assert orders(plan)[tau] == tau
        assert plan.largest_factor == 8
        assert edges(plan) == tuple(t.scope for t in u.tables)

    def test_min_fill_prefers_the_vertex_that_adds_no_edge(self):
        # 2 is a leaf of 1; eliminating 1 first would join 2 with 3 and 4
        scopes = [(1, 2), (1, 3), (1, 4), (3, 4)]
        u = Potential(binary_vars(5), [InteractionTable(s, np.array([[0.0, 0.0], [0.0, 0.3]]))
                                       for s in scopes])
        plan = _plan(u, (0, 3, 4))
        assert orders(plan)[(1, 2)] == (2, 1)
        assert plan.largest_factor == 8

    @settings(max_examples=60, deadline=None)
    @given(models())
    def test_orders_shared_by_local_structure_match_direct_min_fill(self, model):
        # one min-fill order per relabeled local structure maps back to the
        # order a direct min-fill of each component gives; only a component
        # with a non-empty boundary is folded, so only it gets an order and
        # only its tables count
        u, keep, _ = model
        plan = _plan(u, keep)
        largest = 1
        for tau in plan.components:
            if not plan.boundaries[tau]:
                assert tau not in orders(plan) and tau not in factors(plan)
                continue
            order, formed = _min_fill_order([e for e in edges(plan) if set(e) & set(tau)], tau)
            assert orders(plan)[tau] == order
            assert factors(plan)[tau] == formed
            scopes = formed + [plan.boundaries[tau]]
            largest = max(largest, *(math.prod(u.vars.sizes(s)) for s in scopes))
        assert plan.largest_factor == largest

    @settings(max_examples=80, deadline=None)
    @given(plan_cases)
    def test_plan_matches_the_reference_plan(self, case):
        family, keep = case
        h, vars = hypergraph_of(family), family.vars
        plan, ref = build_plan(family.members, keep), ReferencePlan(h, vars.all_ids(), keep)
        assert edges(plan) == h.edges
        assert plan.components == ref.components
        assert list(plan.boundaries.items()) == list(ref.boundaries.items())
        assert orders(plan) == ref.orders
        assert factors(plan) == ref.factors
        assert plan.largest_factor == ref.largest_factor(vars)
        assert plan.largest_split == ref.largest_split(vars)

    @settings(max_examples=80, deadline=None)
    @given(plan_cases)
    def test_scope_rows_match_the_sorted_hyperedges_and_a_table_search(self, case):
        family, keep = case
        groups = [g for u in family for g in u._groups]
        rows, which = _scope_rows([g.scopes for g in groups])
        edges = sorted(hypergraph_of(family).edges)
        assert [tuple(x for x in row if x >= 0) for row in rows.tolist()] == edges
        for g, at in zip(groups, which):
            assert [edges[j] for j in at.tolist()] == list(map(tuple, g.scopes.tolist()))
        # the plan's lookup finds each member's table on each hyperedge
        src, row = build_plan(family.members, keep)._tables
        for m, u in enumerate(family):
            for j, e in enumerate(edges):
                t = u.table_for(e)
                assert (src[m, j] >= 0) == (t is not None)
                if t is not None:
                    assert groups[src[m, j]].values[row[m, j]].tobytes() == t.values.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(plan_cases, null_table_families()))
    def test_report_sets_match_the_set_algebra(self, case):
        family, keep = case
        rep = marginalize_hypergraph(family, keep)
        ref = report_sets_by_set_algebra(family, keep, rep.marginal_family, NULL_TOL)
        for name in ("marginal_hypergraph", "added", "removed", "kept", "innovation_scopes"):
            assert getattr(rep, name).edges == tuple(sorted(ref[name])), name
        for graph, name in ((rep.model_subgraph, "model_subgraph"),
                            (rep.marginal_graph(), "marginal_graph")):
            assert graph.vertices == varset(keep) and graph.edges == ref[name], name
        assert rep.graphically_collapsible == (ref["model_subgraph"] == ref["marginal_graph"])
        assert rep.parametrically_collapsible == (not ref["innovation_scopes"])
        # every marginal scope is a restricted scope or an innovation scope
        restricted = set(rep.kept.edges) | set(rep.removed.edges)
        assert set(rep.marginal_hypergraph.edges) <= restricted | set(rep.innovation_scopes.edges)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(plan_cases, null_table_families()))
    def test_report_graphs_match_the_tuple_constructions(self, case):
        # the report codes pairs of ids in arrays; the oracles build tuples
        family, keep = case
        rep = marginalize_hypergraph(family, keep)
        _, a, plan = _checked_plan(family.members, keep, NULL_TOL)
        assert rep.marginal_graph() == induced_graph(rep.marginal_hypergraph, a)
        assert rep.model_subgraph == model_subgraph_by_tuples(plan, a)

    def test_report_graphs_of_wide_hyperedges_match_the_tuple_constructions(self):
        # the grid's marginal hyperedges hold 1-8 of its ten boundary
        # variables; a pure three-way table joins 0, 1 and 2 in the model's
        # graph with no pair table beside it
        three = np.zeros((2, 2, 2))
        three[1, 1, 1] = 0.8
        three_way = Potential(binary_vars(4), [
            InteractionTable((0, 1, 2), three),
            InteractionTable((2, 3), np.array([[0.0, 0.0], [0.0, 1.0]]))])
        for u, keep, sizes in ((grid_potential(), grid_retained(), (8, 45)),
                               (three_way, (0, 1, 2), (3, 3))):
            rep = marginalize_hypergraph(u, keep)
            _, a, plan = _checked_plan([u], keep, NULL_TOL)
            assert (len(rep.model_subgraph.edges), len(rep.marginal_graph().edges)) == sizes
            assert rep.marginal_graph() == induced_graph(rep.marginal_hypergraph, a)
            assert rep.model_subgraph == model_subgraph_by_tuples(plan, a)

    def test_untouched_variables_are_their_own_components(self):
        u = Potential(binary_vars(3), [InteractionTable((0, 1), np.array([[0.0, 0.0], [0.0, 1.0]]))])
        plan = _plan(u, (0,))
        assert plan.components == ((1,), (2,))
        assert plan.boundaries == {(1,): (0,), (2,): ()}


def _hub_potential(retained: int) -> Potential:
    """One eliminated hub (id 0) joined by pair tables to ``retained``
    binary variables."""
    variables = binary_vars(retained + 1)
    return Potential(variables, [InteractionTable((0, k), np.array([[0.0, 0.0], [0.0, 0.4]]))
                                 for k in range(1, retained + 1)])


def _cliques(copies: int, width: int = 20) -> tuple[Potential, list[int]]:
    """``copies`` eliminated cliques of ``width`` binary variables, joined by
    pair tables, each next to one retained variable; every clique folds
    through a table of 2^width entries."""
    tables, keep = [], []
    for c in range(copies):
        base = c * (width + 1)
        tables += [InteractionTable((x, y), np.array([[0.0, 0.0], [0.0, 0.1]]))
                   for x, y in combinations(range(base, base + width), 2)]
        tables.append(InteractionTable((base, base + width), np.array([[0.0, 0.0], [0.0, 0.3]])))
        keep.append(base + width)
    return Potential(binary_vars(copies * (width + 1)), tables), keep


def _refused_quickly_and_small(call) -> None:
    # a refusal that does not come before the folds fails here, before the
    # folds could allocate what the limit guards against
    def folded(*args):
        pytest.fail("the refusal came after the plan: the folds were reached")

    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.MonkeyPatch.context() as patch, pytest.raises(ResourceLimitError):
            patch.setattr(hypergraph_marginal, "_component_folds", folded)
            call()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 16 * 2 ** 20


class TestResourceGuard:
    def test_hub_next_to_21_retained_variables_is_refused(self):
        u = _hub_potential(21)
        keep = tuple(range(1, 22))
        assert _plan(u, keep).largest_factor > STATE_LIMIT
        _refused_quickly_and_small(lambda: marginalize_hypergraph(u, keep))
        _refused_quickly_and_small(lambda: innovations(u, keep))

    def test_a_component_with_an_empty_boundary_is_never_folded(self, monkeypatch):
        # the eliminated 21-clique would fold through 2^21 entries, but no
        # retained variable borders it, so it only adds the normalizing
        # constant: the marginal is the restriction to the isolated 0, and
        # the clique gets no min-fill order
        tables = [InteractionTable((0,), np.array([0.0, 0.7]))]
        tables += [InteractionTable((x, y), np.array([[0.0, 0.0], [0.0, 0.1]]))
                   for x, y in combinations(range(1, 22), 2)]
        u = Potential(binary_vars(22), tables)
        calls, min_fill = [], hypergraph_marginal._min_fill_order
        monkeypatch.setattr(hypergraph_marginal, "_min_fill_order",
                            lambda *args: calls.append(args) or min_fill(*args))
        _memo.clear()
        plan = _plan(u, (0,))
        assert plan.boundaries == {tuple(range(1, 22)): ()}
        assert plan.largest_factor == 1 and plan._folds == []
        rep = marginalize_hypergraph(u, (0,))
        [t] = rep.marginal_potential.tables
        assert t.scope == (0,) and t.values.tobytes() == tables[0].values.tobytes()
        assert rep.parametrically_collapsible and innovations(u, (0,)) == []
        assert calls == []
        # a boundary of 21 retained variables is still refused
        hub = _hub_potential(21)
        _refused_quickly_and_small(lambda: marginalize_hypergraph(hub, tuple(range(1, 22))))

    def test_hub_within_the_limit_still_folds(self):
        u = _hub_potential(5)
        rep = marginalize_hypergraph(u, tuple(range(1, 6)))
        assert not rep.parametrically_collapsible

    def test_stacked_folds_stay_within_the_limit(self):
        # six like-shaped components, each folding through a table of
        # STATE_LIMIT entries: stacked at once they would need six of them
        u, keep = _cliques(6)
        plan = _plan(u, keep)
        assert len(plan.components) == 6
        assert plan.largest_factor == STATE_LIMIT
        tracemalloc.start()
        try:
            out = innovations(u, keep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [i.scope for i in out] == [(k,) for k in keep]
        assert peak < 5 * 8 * STATE_LIMIT
        # a family stacks its members' folds together, within the same bound
        negated = Potential(u.vars, [InteractionTable(t.scope, -t.values) for t in u.tables])
        plan = build_plan([u, negated], keep)
        tracemalloc.start()
        try:
            folds = member_folds([u, negated], plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [sum(len(r) for r, _, _ in f) for f in folds] == [6, 6]
        assert peak < 5 * 8 * STATE_LIMIT

    def test_a_group_too_wide_for_one_stack_folds_in_chunks(self, monkeypatch):
        # ten components folding through 2^17 entries: eight fit one stack
        u, keep = _cliques(10, width=17)
        plan = _plan(u, keep)
        batches = []
        fold_stack = hypergraph_marginal._fold_stack

        def counting(schedule, stacks, batch):
            batches.append(batch)
            return fold_stack(schedule, stacks, batch)

        monkeypatch.setattr(hypergraph_marginal, "_fold_stack", counting)
        [folds] = _folds_by_component([u], plan)
        assert batches == [8, 2]
        monkeypatch.undo()
        for tau, (scope, values) in folds.items():
            ref = component_potential(u, tau, plan)
            assert scope == ref.scope
            assert values.tobytes() == ref.values.tobytes()

    def test_split_of_a_13_variable_boundary_is_refused(self):
        # every factor fits, but the boundary splits into 3^13 - 1 entries
        u = _hub_potential(13)
        keep = tuple(range(1, 14))
        plan = _plan(u, keep)
        assert plan.largest_factor == 2 ** 14
        assert plan.largest_split == 3 ** 13 - 1 > STATE_LIMIT
        _refused_quickly_and_small(lambda: marginalize_hypergraph(u, keep))
        _refused_quickly_and_small(lambda: innovations(u, keep))

    def test_split_of_a_12_variable_boundary_still_folds(self):
        u = _hub_potential(12)
        keep = tuple(range(1, 13))
        assert _plan(u, keep).largest_split == 3 ** 12 - 1 <= STATE_LIMIT
        rep = marginalize_hypergraph(u, keep)
        assert (1, 2) in rep.added

    def test_a_split_plan_above_the_cache_budget_is_not_retained(self):
        # a 12-variable binary boundary splits into 3^12 - 1 entries, a
        # 10-variable one into 3^10 - 1; only the smaller plan is kept, and
        # the answer is the same whether or not the first call's is kept
        assert 3 ** 10 - 1 <= SPLIT_PLAN_CACHE_ENTRIES < 3 ** 12 - 1
        for width, keeps in ((12, 0), (10, 1)):
            u, keep = _hub_potential(width), tuple(range(1, width + 1))
            _memo.clear()
            reports = [_report_bytes(marginalize_hypergraph(u, keep)) for _ in range(2)]
            assert reports[0] == reports[1]
            assert len(kept(_split_plan)) == keeps


def _report_bytes(rep) -> tuple:
    """Every table of a report, as bytes, with its hypergraphs and graphs."""
    tables = [(t.scope, t.values.tobytes()) for m in rep.marginal_family for t in m.tables]
    hypergraphs = [getattr(rep, name).edges for name in (
        "marginal_hypergraph", "added", "removed", "kept", "innovation_scopes")]
    return tables, hypergraphs, rep.model_subgraph, rep.marginal_graph()


def _result_bytes(result) -> tuple:
    """A potential's tables as bytes, or a report's (:func:`_report_bytes`)."""
    if isinstance(result, Potential):
        return tuple((t.scope, t.values.tobytes()) for t in result.tables)
    return _report_bytes(result)


def _raw_chain(n: int, rng, start: int = 0, length: int | None = None) -> Potential:
    """A binary chain on ids ``start`` to ``start + length - 1`` (all ``n``
    by default) of a registry of ``n``, with random unary and pair tables,
    not normalized."""
    ids = range(start, start + (n if length is None else length))
    raw = [InteractionTable((k,), rng.uniform(-1.5, 1.5, 2)) for k in ids]
    raw += [InteractionTable((k, k + 1), rng.uniform(-1.5, 1.5, (2, 2))) for k in ids[:-1]]
    return Potential(binary_vars(n), raw)


def _chain_segment(n: int, start: int, length: int, rng) -> Potential:
    """The normalized :func:`_raw_chain` on ids ``start`` to
    ``start + length - 1`` of a registry of ``n``."""
    return normalize_potential(_raw_chain(n, rng, start, length))


def _one_ternary_chain(anchor: int) -> Potential:
    """A normalized chain of seven variables, binary but for the ternary 3,
    whose 0 sits at position ``anchor``: every table on 3 is alone in its
    group, so the groups' scopes do not depend on where that 0 sits."""
    rng = np.random.default_rng(41)
    domains = [(0.0, 1.0)] * 7
    domains[3] = ((0.0, 1.0, 2.0), (-1.0, 0.0, 1.0))[anchor]
    v = Variables([f"V{k}" for k in range(7)], domains)
    raw = [InteractionTable((k,), rng.uniform(-1.5, 1.5, v.sizes((k,)))) for k in range(7)]
    raw += [InteractionTable((k, k + 1), rng.uniform(-1.5, 1.5, v.sizes((k, k + 1))))
            for k in range(6)]
    return normalize_potential(Potential(v, raw))


class TestSymbolicCache:
    """The per-process memo (``potentials._kept``): the plan of each model
    structure, compiled with the layouts of a call's sums and splits, the
    split layout of each potential structure in normalization and the split
    plan of each table shape and anchors."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(plan_cases, block_families()))
    def test_reports_are_bit_identical_with_cold_and_warm_caches(self, case):
        family, keep = case
        _memo.clear()
        cold = _report_bytes(marginalize_hypergraph(family, keep))
        assert len(kept(EliminationPlan)) == 1
        memo = memo_ids()
        warm = _report_bytes(marginalize_hypergraph(family, keep))
        assert warm == cold
        # the warm call built nothing: a build within the budget would be kept
        assert memo_ids() == memo and len(memo) < 64

    @staticmethod
    def _not_reused(first, then) -> None:
        """Marginalizing ``then`` (a family, a retained set and a tolerance)
        right after ``first`` builds a plan of its own and gives its cold
        report byte for byte."""
        _memo.clear()
        cold = _report_bytes(marginalize_hypergraph(*then))
        _memo.clear()
        marginalize_hypergraph(*first)
        [plan] = kept(EliminationPlan)
        assert _report_bytes(marginalize_hypergraph(*then)) == cold
        assert len(kept(EliminationPlan)) == 2 and plan in kept(EliminationPlan)

    def test_a_plan_is_not_reused_for_another_model_structure(self):
        rng = np.random.default_rng(29)
        u = _chain_segment(8, 0, 8, rng)
        ends = (0, 7)
        # (a) another retained set
        self._not_reused((u, ends, NULL_TOL), (u, (0, 4, 7), NULL_TOL))
        # (b) one table null, by its values or by the tolerance
        tiny = [InteractionTable(t.scope, t.values * (1e-12 if t.scope == (3, 4) else 1.0))
                for t in u.tables]
        self._not_reused((u, ends, NULL_TOL), (Potential(u.vars, tiny), ends, NULL_TOL))
        least = min(t.max_abs for t in u.tables)
        self._not_reused((u, ends, NULL_TOL), (u, ends, least))
        # (c) a ternary model on the same scopes as a binary one
        ternary = Variables([f"V{k}" for k in range(8)], [(-1.0, 0.0, 2.5)] * 8)
        u3 = normalize_potential(Potential(ternary, [
            InteractionTable(t.scope, rng.uniform(-1.5, 1.5, ternary.sizes(t.scope)))
            for t in u.tables]))
        self._not_reused((u, ends, NULL_TOL), (u3, ends, NULL_TOL))
        # (d) a family's members in another order or number
        v = Potential(u.vars, [t for t in u.tables if len(t.scope) == 2])
        for other in ([v, u], [u, v, u], [u]):
            self._not_reused((PotentialFamily([u, v]), ends, NULL_TOL),
                             (PotentialFamily(other), ends, NULL_TOL))

    def test_a_model_is_not_reused_for_another_anchor(self):
        # equal domain sizes and equal group scopes; only the position of 0
        # in the domain of the retained 3 differs, and with it the anchors
        # of both boundaries
        first, then = _one_ternary_chain(0), _one_ternary_chain(1)
        a, sizes, zeros, scopes = _model_structure([first], varset((0, 3, 6)))
        assert _model_structure([then], a) == (a, sizes, then.vars.zero_indices, scopes)
        assert then.vars.zero_indices != zeros
        self._not_reused((first, (0, 3, 6), NULL_TOL), (then, (0, 3, 6), NULL_TOL))

    def test_a_model_over_the_limit_is_refused_on_every_call(self):
        u, keep = _hub_potential(21), tuple(range(1, 22))
        _memo.clear()
        served = []
        for _ in range(2):
            _refused_quickly_and_small(lambda: marginalize_hypergraph(u, keep))
            served += kept(EliminationPlan)
            _refused_quickly_and_small(lambda: innovations(u, keep))
            served += kept(EliminationPlan)
        # one plan served all four calls, and each of them was refused
        # before anything was compiled
        assert len(served) == 4 and all(plan is served[0] for plan in served)
        assert served[0].largest_factor > STATE_LIMIT and served[0].gathers == 0

    @settings(max_examples=40, deadline=None)
    @given(plan_cases)
    def test_a_cached_plan_holds_only_read_only_arrays(self, case):
        family, keep = case
        _memo.clear()
        clean, a, plan = _checked_plan(family.members, keep, NULL_TOL)
        assert kept(EliminationPlan) == [plan]
        arrays = arrays_in([getattr(plan, name) for name in EliminationPlan.__slots__])
        assert len(arrays) >= 4  # the hyperedges, the table lookup and the components
        assert not any(x.flags.writeable for x in arrays)

    def test_the_plan_memo_stays_bounded(self):
        # raw chains, one more variable each time, normalized and then
        # marginalized keeping their ends: each chain adds a normalization
        # layout and a plan, and every chain reuses the split plans of its
        # two table shapes
        rng = np.random.default_rng(64)
        _memo.clear()
        for k in range(1, 36):
            marginalize_hypergraph(normalize_potential(_raw_chain(k + 2, rng)), (0, k + 1))
            assert len(_memo) == min(2 * k + 2, 64)
            if k == 1:
                split_plans = [id(x) for x in kept(_split_plan)]
        # the least recently used went first: the layouts and plans of the
        # chains of 3 to 6 variables, and not the split plans, built first
        # but read by every chain
        assert [build for build, _ in _memo][:2] == [_normalize_layout, EliminationPlan]
        assert kept(EliminationPlan)[0].components == (tuple(range(1, 6)),)
        assert len(kept(_normalize_layout)) == len(kept(EliminationPlan)) == 31
        assert [id(x) for x in kept(_split_plan)] == split_plans

    def test_threads_share_the_plans(self):
        # more threads than cores, each cycling through 48 raw chains, which
        # it normalizes and then marginalizes: 96 structures against the
        # memo's 64 entries, so entries are kept, evicted and built again
        # while others read them
        rng = np.random.default_rng(65)
        models = [(_raw_chain(k + 2, rng), (0, k + 1)) for k in range(1, 49)]

        def run(u, keep) -> tuple:
            normal = normalize_potential(u)
            return _result_bytes(normal), _report_bytes(marginalize_hypergraph(normal, keep))

        want = [run(*m) for m in models]
        errors, switch = [], sys.getswitchinterval()

        def work(start: int) -> None:
            try:
                for j in range(2 * len(models)):
                    i = (start + j) % len(models)
                    assert run(*models[i]) == want[i]
            except Exception as e:  # reported by the test's thread
                errors.append(e)

        threads = [threading.Thread(target=work, args=(5 * t,)) for t in range(8)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(_memo) <= 64

    def test_the_grid_is_kept_and_a_wider_model_serves_its_call_only(self):
        # an entry is kept only if its gather indices hold at most
        # SPLIT_PLAN_CACHE_ENTRIES entries.  The grid's 10-variable boundary
        # splits through 3^10 - 1 = 59 048, and its plan gathers 59 121 with
        # its sums; two such boundaries are above the budget, and their plan
        # is built on each call
        grid, keep = grid_potential(), grid_retained()
        hubs = Potential(binary_vars(13), [
            InteractionTable((h, k), np.array([[0.0, 0.0], [0.0, 0.4]]))
            for h, ks in ((0, range(1, 11)), (12, range(2, 12))) for k in ks])
        for u, keep, keeps in ((grid, keep, True), (hubs, tuple(range(1, 12)), False)):
            _memo.clear()
            reports = [_report_bytes(marginalize_hypergraph(u, keep)) for _ in range(2)]
            assert reports[0] == reports[1]
            plan = _checked_plan([u], keep, NULL_TOL)[2]
            assert (plan.gathers <= SPLIT_PLAN_CACHE_ENTRIES) == keeps
            assert kept(EliminationPlan) == ([plan] if keeps else [])
            assert (_checked_plan([u], keep, NULL_TOL)[2] is plan) == keeps
