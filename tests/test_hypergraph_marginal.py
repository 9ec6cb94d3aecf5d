import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margraph import (
    STATE_LIMIT,
    Hypergraph,
    InteractionTable,
    InvalidInputError,
    NotNormalizedError,
    Potential,
    PotentialFamily,
    energy_grid,
    hypergraph_of,
    induced_graph,
    innovations,
    is_normalized,
    joint_table,
    marginal_table,
    marginalize_graph,
    marginalize_hypergraph,
    normalize_potential,
    normalized_potential_from_table,
    precedes,
    subgraph,
    Variables,
    varset,
)

from fixture_models import (
    cancelling_pair_coupling,
    chain_potential,
    chain_retained,
    grid_potential,
    grid_retained,
    two_chain_graph,
)
from helpers import (
    binary_vars,
    boundary_aggregate,
    chain_innovation_closed_forms,
    component_potential,
    folded_component_by_loops,
    random_normalized_potential,
)

A12, A23, A45, A56 = 1.0, 1.0, 1.0, 1.0
KEEP = chain_retained()


@pytest.fixture
def base():
    return chain_potential(A12, A23, A45, A56)


class TestComponentPotential:
    def test_middle_vertex_closed_form(self, base):
        ct = component_potential(base, (1,))
        assert ct.scope == (0, 2)
        g1, g3 = np.meshgrid([0.0, 1.0], [0.0, 1.0], indexing="ij")
        expected = -np.log(1.0 + np.exp(-A12 * g1 - A12 - A23 * g3))
        assert np.max(np.abs(ct.values - expected)) < 1e-12

    def test_untouched_component_is_log_domain_size(self):
        u = Potential(binary_vars(3),
                      [InteractionTable((0, 1), np.array([[0.0, 0.0], [0.0, 0.7]]))])
        ct = component_potential(u, (2,))
        assert ct.scope == ()
        assert float(ct.values) == pytest.approx(-np.log(2.0), abs=1e-15)

    def test_empty_component_rejected(self, base):
        with pytest.raises(InvalidInputError):
            component_potential(base, ())

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            u = random_normalized_potential(rng, n)
            tau = varset(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            ct = component_potential(u, tau)
            oracle = folded_component_by_loops(u, tau, ct.scope)
            assert np.max(np.abs(ct.values - oracle)) <= 1e-12


class TestBoundaryAggregate:
    def test_two_components_share_a_boundary(self, base):
        agg = boundary_aggregate(base, [(1,), (3,), (5,)], (4,))
        t3 = component_potential(base, (3,)).values
        t5 = component_potential(base, (5,)).values
        assert np.max(np.abs(agg.values - (t3 + t5))) < 1e-15

    def test_single_component_unchanged(self, base):
        agg = boundary_aggregate(base, [(1,)], (0, 2))
        assert np.array_equal(agg.values, component_potential(base, (1,)).values)

    def test_identical_components_double(self):
        u = chain_potential(A12, A23, 0.9, 0.9)
        agg = boundary_aggregate(u, [(3,), (5,)], (4,))
        single = component_potential(u, (3,)).values
        assert np.max(np.abs(agg.values - 2.0 * single)) < 1e-15

    def test_unmatched_boundary_rejected(self, base):
        with pytest.raises(InvalidInputError):
            boundary_aggregate(base, [(1,)], (4,))


class TestInnovations:
    def test_closed_forms(self, base):
        got = {i.scope: i.table.values for i in innovations(base, KEEP)}
        expected = chain_innovation_closed_forms(A12, A23, A45, A56)
        assert set(got) == set(expected)
        for scope, vals in expected.items():
            assert np.max(np.abs(got[scope] - vals)) < 1e-12

    def test_isolated_eliminated_variables_give_no_innovations(self):
        u = Potential(binary_vars(4),
                      [InteractionTable((0, 1), np.array([[0.0, 0.0], [0.0, 1.1]]))])
        assert innovations(u, (0, 1)) == []

    def test_requires_normalized_input(self):
        v = binary_vars(2)
        u = Potential(v, [InteractionTable((0, 1), np.array([[0.3, 0.0], [0.0, 1.0]]))])
        with pytest.raises(NotNormalizedError):
            innovations(u, (0,))

    def test_innovations_are_normalized_and_reconstruct_the_fold(self):
        # summing the innovations over each boundary set reproduces the
        # anchored boundary tables (the alternating sums must round-trip)
        rng = np.random.default_rng(101)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            u = random_normalized_potential(rng, n)
            a = varset(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            inns = innovations(u, a)
            for i in inns:
                assert is_normalized(Potential(u.vars, [i.table]))
            g = induced_graph(hypergraph_of(u), u.vars.all_ids())
            from margraph import boundary, connectivity_components
            dropped = varset(set(u.vars.all_ids()) - set(a))
            comps = connectivity_components(subgraph(g, dropped))
            boundaries = {boundary(g, c) for c in comps} - {()}
            if not boundaries:
                assert inns == []
                continue
            union = varset(set().union(*map(set, boundaries)))
            lhs = np.zeros(u.vars.sizes(union))
            axis = {v: k for k, v in enumerate(union)}
            for i in inns:
                shape = [1] * len(union)
                for v in i.scope:
                    shape[axis[v]] = 2
                lhs = lhs + i.table.values.reshape(shape)
            rhs = np.zeros_like(lhs)
            for d in boundaries:
                agg = boundary_aggregate(u, comps, d)
                anchored = agg.values - agg.values[(0,) * len(d)]
                shape = [1] * len(union)
                for v in d:
                    shape[axis[v]] = 2
                rhs = rhs + anchored.reshape(shape)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestMarginalizeHypergraph:
    def test_ids_outside_the_registry_are_refused(self, base):
        for call in (marginalize_hypergraph, innovations):
            with pytest.raises(InvalidInputError,
                               match=re.escape("ids [-1, 6, 9] outside the registry")):
                call(base, (9, 0, 6, -1))

    def test_base_model(self, base):
        rep = marginalize_hypergraph(base, KEEP)
        assert rep.marginal_hypergraph == Hypergraph([(0,), (2,), (0, 2), (4,)])
        assert rep.marginal_graph().edge_list == [(0, 2)]
        assert rep.added == Hypergraph([(0,), (2,), (0, 2), (4,)])
        assert len(rep.removed) == 0 and len(rep.kept) == 0
        assert not rep.graphically_collapsible
        assert not rep.parametrically_collapsible

    def test_a_grid_call_sorts_no_hypergraph(self, monkeypatch):
        # the report's scope sets stay sets; only a reader of edges sorts
        reads = []
        edges = Hypergraph.edges
        monkeypatch.setattr(Hypergraph, "edges",
                            property(lambda h: reads.append(len(h)) or edges.fget(h)))
        rep = marginalize_hypergraph(grid_potential(), grid_retained())
        assert reads == []
        assert len(rep.marginal_hypergraph) > 800 and list(rep.added) == list(rep.added.edges)
        assert len(reads) == 2

    def test_base_model_agrees_with_graph_operator(self, base):
        _, g = two_chain_graph()
        rep = marginalize_hypergraph(base, KEEP)
        assert rep.marginal_graph() == marginalize_graph(g, KEEP)

    def test_cancelling_coupling_drops_the_pair(self):
        a13 = float(cancelling_pair_coupling(A12, A23))
        u = chain_potential(A12, A23, A45, A56, a13=a13)
        rep = marginalize_hypergraph(u, KEEP)
        assert rep.marginal_hypergraph == Hypergraph([(0,), (2,), (4,)])
        assert rep.removed == Hypergraph([(0, 2)])
        assert rep.marginal_graph().edge_list == []
        # the graph operator cannot see the cancellation
        g = induced_graph(hypergraph_of(u), u.vars.all_ids())
        assert (0, 2) in marginalize_graph(g, KEEP).edges

    def test_generic_coupling_keeps_the_pair(self):
        u = chain_potential(A12, A23, A45, A56, a13=1.0)
        rep = marginalize_hypergraph(u, KEEP)
        assert rep.marginal_hypergraph == Hypergraph([(0,), (2,), (0, 2), (4,)])
        assert rep.kept == Hypergraph([(0, 2)])
        assert len(rep.removed) == 0

    def test_keep_everything_is_identity(self, base):
        rep = marginalize_hypergraph(base, range(6))
        assert rep.marginal_hypergraph == hypergraph_of(base)
        assert rep.graphically_collapsible and rep.parametrically_collapsible
        assert tables_equal(rep.marginal_potential, base)

    def test_family_cancellation_must_hold_for_every_member(self):
        a13 = float(cancelling_pair_coupling(A12, A23))
        tuned = chain_potential(A12, A23, A45, A56, a13=a13)
        generic = chain_potential(A12, A23, A45, A56, a13=0.5)
        rep = marginalize_hypergraph(PotentialFamily([tuned, generic]), KEEP)
        # one member keeps the pair interaction alive, so nothing disappears
        assert len(rep.removed) == 0
        assert (0, 2) in rep.marginal_hypergraph

    def test_family_of_two_tuned_members_drops_the_pair(self):
        members = []
        for a12, a23 in [(1.0, 1.0), (0.7, 1.3)]:
            members.append(chain_potential(
                a12, a23, 0.5, -0.8, a13=float(cancelling_pair_coupling(a12, a23))))
        rep = marginalize_hypergraph(PotentialFamily(members), KEEP)
        assert rep.removed == Hypergraph([(0, 2)])
        assert rep.marginal_hypergraph == Hypergraph([(0,), (2,), (4,)])

    def test_non_normalized_member_rejected(self):
        v = binary_vars(2)
        u = Potential(v, [InteractionTable((0, 1), np.array([[0.2, 0.0], [0.0, 1.0]]))])
        with pytest.raises(NotNormalizedError):
            marginalize_hypergraph(u, (0,))

    def test_members_with_different_scopes_marginalize_against_family_structure(self):
        # one member lacks the V2-V3 coupling entirely; the family boundary
        # of the eliminated V2 is still {V1, V3}, and each member's marginal
        # must match its own brute-force marginal
        full = chain_potential(1.0, 0.8, 0.6, 0.4)
        narrow = Potential(full.vars, [t for t in full.tables if t.scope != (1, 2)])
        fam = PotentialFamily([full, narrow])
        rep = marginalize_hypergraph(fam, KEEP)
        for member, marginal in zip(fam, rep.marginal_family):
            grid = energy_grid(marginal, KEEP)
            dens = np.exp(-(grid - grid.min()))
            dens /= dens.sum()
            marg = marginal_table(joint_table(member), KEEP)
            assert np.max(np.abs(dens - marg.probs) / marg.probs) <= 1e-9
        # the narrow member creates nothing on scopes touching V3
        narrow_innov = set(marginalize_hypergraph(narrow, KEEP).innovation_scopes)
        assert (2,) not in narrow_innov and (0, 2) not in narrow_innov
        # family-wide, the pair scope still appears (driven by the full member)
        assert (0, 2) in rep.marginal_hypergraph

    def test_an_energy_sum_that_overflows_folds_without_a_warning(self):
        # on the eliminated B = 1 with A = C = 1 the energy is 1.7e308 +
        # 1.7e308, which overflows to inf; exp(-inf) = 0 next to the anchor's
        # finite term, so the marginal is that of 800 in its place, to the bit
        def marginal(big: float) -> list:
            def pair(x: float) -> np.ndarray:
                return np.array([[0.0, 0.0], [0.0, x]])

            u = Potential(binary_vars(4), [
                InteractionTable((0,), np.array([0.0, 0.3])),
                InteractionTable((1,), np.array([0.0, -1.0])),
                InteractionTable((0, 1), pair(big)), InteractionTable((1, 2), pair(big)),
                InteractionTable((1, 3), pair(0.5)), InteractionTable((2, 3), pair(-0.2))])
            rep = marginalize_hypergraph(u, (0, 2, 3))
            return [(t.scope, t.values.tobytes()) for t in rep.marginal_potential.tables]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert marginal(1.7e308) == marginal(800.0)

    def test_a_marginal_sum_that_overflows_is_refused_without_a_warning(self):
        # eliminating B leaves an innovation of about -1.7e308 on A, and the
        # restricted table on A adds another: the sum is -inf
        u = Potential(binary_vars(2), [
            InteractionTable((0,), np.array([0.0, -1.7e308])),
            InteractionTable((0, 1), np.array([[0.0, 0.0], [0.0, -1.7e308]]))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(innovations(u, (0,))[0].table.max_abs)
            with pytest.raises(InvalidInputError,
                               match=re.escape("computed table for scope ['V1'] overflowed")):
                marginalize_hypergraph(u, (0,))

    def test_marginalizing_onto_nothing_is_degenerate_but_safe(self, base):
        rep = marginalize_hypergraph(base, ())
        assert len(rep.marginal_hypergraph) == 0
        assert len(rep.marginal_potential) == 0


def tables_equal(u: Potential, v: Potential, tol: float = 1e-12) -> bool:
    scopes = {t.scope for t in u.tables} | {t.scope for t in v.tables}
    for s in scopes:
        a = u.table_for(s)
        b = v.table_for(s)
        av = a.values if a is not None else 0.0
        bv = b.values if b is not None else 0.0
        if np.max(np.abs(av - bv)) > tol:
            return False
    return True


class TestInvariants:
    def test_oracle_soundness_small_sweep(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            u = random_normalized_potential(rng, n)
            a = varset(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            rep = marginalize_hypergraph(u, a)
            grid = energy_grid(rep.marginal_potential, a)
            dens = np.exp(-(grid - grid.min()))
            dens /= dens.sum()
            marg = marginal_table(joint_table(u), a)
            assert np.max(np.abs(dens - marg.probs) / marg.probs) <= 1e-9
            assert is_normalized(rep.marginal_potential)
            rec = normalized_potential_from_table(marg)
            assert hypergraph_of(rec) == rep.marginal_hypergraph

    def test_added_scopes_live_inside_boundary_sets(self):
        rng = np.random.default_rng(107)
        from margraph import boundary_hypergraph
        for _ in range(20):
            n = int(rng.integers(3, 9))
            u = random_normalized_potential(rng, n)
            a = varset(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            rep = marginalize_hypergraph(u, a)
            bh = boundary_hypergraph(hypergraph_of(u), u.vars.all_ids(), a)
            non_empty = Hypergraph(e for e in bh if e)
            assert precedes(rep.added, non_empty)
            assert precedes(rep.innovation_scopes, non_empty)

    def test_hypergraph_route_never_coarser_than_graph_route(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            u = random_normalized_potential(rng, n)
            a = varset(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            rep = marginalize_hypergraph(u, a)
            g = induced_graph(hypergraph_of(u), u.vars.all_ids())
            assert rep.marginal_graph().edges <= marginalize_graph(g, a).edges

    def test_report_set_algebra(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            u = random_normalized_potential(rng, n)
            a = varset(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            rep = marginalize_hypergraph(u, a)
            h_restricted = hypergraph_of(u).restrict(a)
            assert rep.marginal_hypergraph == rep.kept.union(rep.added)
            assert not set(rep.added.edges) & set(h_restricted.edges)
            assert set(rep.removed.edges) <= set(h_restricted.edges)
            assert rep.kept == h_restricted.difference(rep.removed)


@st.composite
def disjoint_models(draw):
    """The normalized members (1 or 2) of a model of 40-60 variables and a
    retained set: a binary chain, a chain whose binary or ternary domains do
    not start at 0, each keeping a random third, or a random binary tree in
    which every vertex has at most two children, keeping those at even
    depth; random unary and pair tables."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(40, 61))
    kind = draw(st.sampled_from(["chain", "tree", "ternary", "anchored"]))
    domains = [{"ternary": (-1.0, 0.0, 2.5), "anchored": (-1.0, 0.0)}.get(kind, (0.0, 1.0))] * n
    variables = Variables([f"V{k}" for k in range(n)], domains)
    parents, depth, slots = [], [0], [0, 0]  # one slot per free child place
    for k in range(1, n):
        if kind == "tree":
            parents.append(slots.pop(int(rng.integers(0, len(slots)))))
            slots += [k, k]
        else:
            parents.append(k - 1)
        depth.append(depth[parents[-1]] + 1)
    scopes = [(k,) for k in range(n)] + [(p, k) for p, k in zip(parents, range(1, n))]
    members = [normalize_potential(Potential(variables, [
        InteractionTable(s, rng.uniform(-1.5, 1.5, variables.sizes(s))) for s in scopes]))
        for _ in range(draw(st.integers(1, 2)))]
    keep = [k for k in range(n) if (depth[k] % 2 == 0 if kind == "tree" else rng.random() < 0.35)]
    return members, varset(keep or [0])


def _offset(u: Potential, variables: Variables, by: int) -> Potential:
    """``u``'s tables on ``variables``, every id moved up by ``by``."""
    return Potential(variables, [InteractionTable(tuple(v + by for v in t.scope), t.values)
                                 for t in u.tables])


def _moved(edges, by: int) -> set:
    return {tuple(v + by for v in e) for e in edges}


class TestDisjointUnion:
    @settings(max_examples=40, deadline=None)
    @given(disjoint_models(), disjoint_models())
    def test_the_union_of_two_models_marginalizes_to_the_union_of_their_marginals(self, x, y):
        # past STATE_LIMIT the oracle cannot check a marginal; two models on
        # disjoint variables must marginalize side by side, byte for byte
        (first, a), (second, b) = x, y
        count = min(len(first), len(second))
        first, second = first[:count], second[:count]
        by = len(first[0].vars)
        joint = Variables(first[0].vars.labels + tuple(f"W{k}" for k in range(len(second[0].vars))),
                          first[0].vars.domains + second[0].vars.domains)
        assert math.prod(map(len, joint.domains)) > STATE_LIMIT
        union = PotentialFamily(
            Potential(joint, _offset(u, joint, 0).tables + _offset(v, joint, by).tables)
            for u, v in zip(first, second))
        rep = marginalize_hypergraph(union, a + tuple(k + by for k in b))
        left = marginalize_hypergraph(PotentialFamily(first), a)
        right = marginalize_hypergraph(PotentialFamily(second), b)
        for got, u, v in zip(rep.marginal_family, left.marginal_family, right.marginal_family):
            want = {t.scope: t.values.tobytes() for t in u.tables}
            want.update({s: t.values.tobytes() for t in v.tables for s in _moved([t.scope], by)})
            assert {t.scope: t.values.tobytes() for t in got.tables} == want
        for name in ("marginal_hypergraph", "added", "removed", "kept", "innovation_scopes"):
            assert set(getattr(rep, name)) == (set(getattr(left, name))
                                               | _moved(getattr(right, name), by)), name
        assert set(rep.model_subgraph.edges) == (set(left.model_subgraph.edges)
                                                 | _moved(right.model_subgraph.edges, by))
        assert set(rep.marginal_graph().edges) == (set(left.marginal_graph().edges)
                                                   | _moved(right.marginal_graph().edges, by))
        assert rep.graphically_collapsible == (left.graphically_collapsible
                                               and right.graphically_collapsible)
        assert rep.parametrically_collapsible == (left.parametrically_collapsible
                                                  and right.parametrically_collapsible)
