"""The elimination plan and the log-space component fold.

The fold is checked against the dense reference fold in ``helpers`` and
against the brute-force oracle; the plan's size guard must refuse an
oversized elimination before allocating anything.
"""

import math
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margraph import (
    STATE_LIMIT,
    EliminationPlan,
    InteractionTable,
    Potential,
    PotentialFamily,
    ResourceLimitError,
    Variables,
    energy_grid,
    hypergraph_of,
    innovations,
    joint_table,
    marginal_table,
    marginalize_hypergraph,
    normalize_potential,
    varset,
)
from margraph import hypergraph_marginal
from margraph.hypergraph_marginal import (
    _component_folds,
    _innovation_tables,
    _min_fill_order,
)
from margraph.potentials import (
    NULL_TOL,
    SPLIT_PLAN_CACHE_ENTRIES,
    _off_anchor_counts,
    _scope_rows,
    _split_plan,
)

from helpers import (
    ReferencePlan,
    binary_vars,
    component_potential,
    dense_component_potential,
    fold_tables,
    innovations_by_components,
    zero_coord_mask,
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
    return EliminationPlan._of([u], varset(keep))


def _folds_by_component(members, plan: EliminationPlan) -> list[dict]:
    """The stacked folds of each of ``members``, folded together, as
    (scope, values) per component, in ``plan.components`` order; no
    component may fold twice."""
    out = []
    for stacks in _component_folds(members, plan):
        folds = {}
        for ranks, scopes, values in stacks:
            for r, scope, vals in zip(ranks, scopes.tolist(), values):
                assert plan.components[r] not in folds
                folds[plan.components[r]] = (tuple(scope), vals)
        out.append({tau: folds[tau] for tau in plan.components if tau in folds})
    return out


def _innovations(members, plan: EliminationPlan) -> list[dict]:
    """The innovation tables of each of ``members``, folded together."""
    return [{t.scope: t.values for t in _innovation_tables(m, plan, NULL_TOL, folds).tables}
            for m, folds in zip(members, _component_folds(members, plan))]


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
        for tau in plan.components:
            tables = [t for t in u.tables if set(t.scope) & set(tau)]
            shuffled = list(plan.orders[tau])
            random.shuffle(shuffled)
            scope, values = fold_tables(u.vars, tables, plan.orders[tau])
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


class TestStackedFolds:
    @settings(max_examples=60, deadline=None)
    @given(block_families())
    def test_stacked_folds_match_component_potential_bit_for_bit(self, case):
        family, keep = case
        plan = EliminationPlan._of(family.members, keep)
        for member, folds in zip(family, _folds_by_component(family.members, plan)):
            assert list(folds) == [tau for tau in plan.components if plan.boundaries[tau]]
            for tau, (scope, values) in folds.items():
                ref = component_potential(member, tau, plan)
                assert scope == ref.scope
                assert values.shape == ref.values.shape
                assert values.tobytes() == ref.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(block_families())
    def test_innovations_match_the_component_by_component_route_bit_for_bit(self, case):
        family, keep = case
        plan = EliminationPlan._of(family.members, keep)
        for member, got in zip(family, _innovations(family.members, plan)):
            ref = innovations_by_components(member, plan, NULL_TOL)
            assert list(got) == list(ref)
            for scope, values in ref.items():
                assert got[scope].tobytes() == values.tobytes()

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
        assert len(_component_folds([u], plan)[0]) == 2
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

        def counting(structure, stacks, batch):
            batches.append(batch)
            return fold_stack(structure, stacks, batch)

        monkeypatch.setattr(hypergraph_marginal, "_fold_stack", counting)
        _component_folds([u], plan)
        assert batches == [10]
        # a family folds every member's copies of the structure in one stack
        negated = Potential(u.vars, [InteractionTable(t.scope, -t.values) for t in u.tables])
        batches.clear()
        family = [u, negated, u]
        _component_folds(family, EliminationPlan._of(family, varset(range(0, n, 3))))
        assert batches == [30]


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
        assert plan.orders[tau] == tau
        assert plan.largest_factor(u.vars) == 8
        assert plan.edges == tuple(t.scope for t in u.tables)

    def test_min_fill_prefers_the_vertex_that_adds_no_edge(self):
        # 2 is a leaf of 1; eliminating 1 first would join 2 with 3 and 4
        scopes = [(1, 2), (1, 3), (1, 4), (3, 4)]
        u = Potential(binary_vars(5), [InteractionTable(s, np.array([[0.0, 0.0], [0.0, 0.3]]))
                                       for s in scopes])
        plan = _plan(u, (0, 3, 4))
        assert plan.orders[(1, 2)] == (2, 1)
        assert plan.largest_factor(u.vars) == 8

    @settings(max_examples=60, deadline=None)
    @given(models())
    def test_orders_shared_by_local_structure_match_direct_min_fill(self, model):
        # one min-fill order per relabeled local structure maps back to the
        # order a direct min-fill of each component gives
        u, keep, _ = model
        plan = _plan(u, keep)
        largest = 1
        for tau in plan.components:
            order, factors = _min_fill_order([e for e in plan.edges if set(e) & set(tau)], tau)
            assert plan.orders[tau] == order
            assert plan.factors[tau] == factors
            scopes = factors + [plan.boundaries[tau]]
            largest = max(largest, *(math.prod(u.vars.sizes(s)) for s in scopes))
        assert plan.largest_factor(u.vars) == largest

    @settings(max_examples=80, deadline=None)
    @given(plan_cases)
    def test_plan_matches_the_reference_plan(self, case):
        family, keep = case
        h, ids, vars = hypergraph_of(family), family.vars.all_ids(), family.vars
        plan, ref = EliminationPlan(h, ids, keep), ReferencePlan(h, ids, keep)
        assert plan.edges == h.edges
        assert plan.components == ref.components
        assert list(plan.boundaries.items()) == list(ref.boundaries.items())
        assert plan.orders == ref.orders
        assert plan.factors == ref.factors
        assert plan.largest_factor(vars) == ref.largest_factor(vars)
        assert plan.largest_split(vars) == ref.largest_split(vars)

    @settings(max_examples=80, deadline=None)
    @given(plan_cases)
    def test_plan_of_the_scope_arrays_matches_the_plan_of_the_hypergraph(self, case):
        family, keep = case
        vars = family.vars
        plan = EliminationPlan._of(family.members, keep)
        ref = EliminationPlan(hypergraph_of(family), vars.all_ids(), keep)
        assert plan.edges == ref.edges
        assert plan.components == ref.components
        assert list(plan.boundaries.items()) == list(ref.boundaries.items())
        assert plan.orders == ref.orders
        assert plan.factors == ref.factors
        assert plan.largest_factor(vars) == ref.largest_factor(vars)
        assert plan.largest_split(vars) == ref.largest_split(vars)

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
        src, row = EliminationPlan._of(family.members, keep)._tables
        for m, u in enumerate(family):
            for j, e in enumerate(edges):
                t = u.table_for(e)
                assert (src[m, j] >= 0) == (t is not None)
                if t is not None:
                    assert groups[src[m, j]].values[row[m, j]].tobytes() == t.values.tobytes()

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
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceLimitError):
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
        assert _plan(u, keep).largest_factor(u.vars) > STATE_LIMIT
        _refused_quickly_and_small(lambda: marginalize_hypergraph(u, keep))
        _refused_quickly_and_small(lambda: innovations(u, keep))

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
        assert plan.largest_factor(u.vars) == STATE_LIMIT
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
        plan = EliminationPlan._of([u, negated], varset(keep))
        tracemalloc.start()
        try:
            folds = _component_folds([u, negated], plan)
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

        def counting(structure, stacks, batch):
            batches.append(batch)
            return fold_stack(structure, stacks, batch)

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
        assert plan.largest_factor(u.vars) == 2 ** 14
        assert plan.largest_split(u.vars) == 3 ** 13 - 1 > STATE_LIMIT
        _refused_quickly_and_small(lambda: marginalize_hypergraph(u, keep))
        _refused_quickly_and_small(lambda: innovations(u, keep))

    def test_split_of_a_12_variable_boundary_still_folds(self):
        u = _hub_potential(12)
        keep = tuple(range(1, 13))
        assert _plan(u, keep).largest_split(u.vars) == 3 ** 12 - 1 <= STATE_LIMIT
        rep = marginalize_hypergraph(u, keep)
        assert (1, 2) in rep.added

    def test_a_split_plan_above_the_cache_budget_is_not_retained(self):
        # a 12-variable binary boundary splits into 3^12 - 1 entries, a
        # 10-variable one into 3^10 - 1; only the smaller plan is kept
        assert 3 ** 10 - 1 <= SPLIT_PLAN_CACHE_ENTRIES < 3 ** 12 - 1
        for width, kept in ((12, 0), (10, 1)):
            _split_plan.cache_clear()
            marginalize_hypergraph(_hub_potential(width), tuple(range(1, width + 1)))
            assert _split_plan.cache_info().currsize == kept


@given(st.lists(st.integers(2, 4), min_size=1, max_size=5), st.data())
def test_masks_from_the_support_array_match_zero_coord_mask(sizes, data):
    shape = tuple(sizes)
    zp = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
    count = _off_anchor_counts(shape, zp)
    assert np.array_equal(count < len(shape), zero_coord_mask(shape, zp))
    for k in range(1, len(shape) + 1):
        for sub in combinations(range(len(shape)), k):
            idx = tuple(slice(None) if ax in sub else zp[ax] for ax in range(len(shape)))
            expected = zero_coord_mask(tuple(shape[ax] for ax in sub), tuple(zp[ax] for ax in sub))
            assert np.array_equal(count[idx] < k, expected)
