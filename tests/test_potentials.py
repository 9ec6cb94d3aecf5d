import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margraph import (
    STATE_LIMIT,
    Graph,
    Hypergraph,
    InteractionTable,
    InvalidInputError,
    Potential,
    PotentialFamily,
    ResourceLimitError,
    Variables,
    boundary_hypergraph,
    energy,
    energy_grid,
    hypergraph_of,
    induced_graph,
    innovations,
    is_complete,
    is_normalized,
    joint_table,
    marginalize_hypergraph,
    normalize_potential,
    normalized_potential_from_table,
    precedes,
    restrict,
    varset,
)
from margraph.potentials import NORMALIZED_TOL, _split

from fixture_models import (
    chain_retained,
    monomial_potential,
    triangle_chain_normalized_terms,
    triangle_chain_raw_potential,
)
from helpers import (
    binary_vars,
    energy_by_loops,
    is_normalized_by_tables,
    random_normalized_potential,
    split_by_tables,
    zero_coord_mask,
)

THETAS = (0.3, -0.7, 1.1, 0.5, -0.2)


@pytest.fixture
def raw():
    return triangle_chain_raw_potential(*THETAS)


@pytest.fixture
def expected_normalized():
    return monomial_potential(binary_vars(6), triangle_chain_normalized_terms(*THETAS))


def tables_close(u: Potential, v: Potential, tol: float) -> bool:
    scopes = {t.scope for t in u.tables} | {t.scope for t in v.tables}
    for s in scopes:
        a = u.table_for(s)
        b = v.table_for(s)
        av = a.values if a is not None else np.zeros(u.vars.sizes(s))
        bv = b.values if b is not None else np.zeros(u.vars.sizes(s))
        if np.max(np.abs(av - bv)) > tol:
            return False
    return True


class TestTypes:
    def test_table_shape_must_match_domains(self):
        v = binary_vars(2)
        with pytest.raises(InvalidInputError):
            Potential(v, [InteractionTable((0,), np.zeros(3))])

    def test_non_finite_entries_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInputError, match="non-finite"):
                InteractionTable((0,), np.array([0.0, bad]))

    def test_max_abs_is_computed_once_at_construction(self):
        t = InteractionTable((0, 1), np.array([[0.0, -2.5], [1.0, 0.5]]))
        assert t.max_abs == 2.5

    def test_duplicate_scope_rejected(self):
        v = binary_vars(2)
        t = InteractionTable((0,), np.array([0.0, 1.0]))
        with pytest.raises(InvalidInputError):
            Potential(v, [t, t])

    def test_empty_scope_rejected_in_potential(self):
        v = binary_vars(2)
        with pytest.raises(InvalidInputError):
            Potential(v, [InteractionTable((), np.array(1.0))])

    def test_family_needs_members(self):
        with pytest.raises(InvalidInputError):
            PotentialFamily([])

    def test_family_members_share_registry(self):
        with pytest.raises(InvalidInputError):
            PotentialFamily([Potential(binary_vars(2)), Potential(binary_vars(3))])

    def test_hypergraph_rejects_empty_edge_by_default(self):
        with pytest.raises(InvalidInputError):
            Hypergraph([()])
        assert Hypergraph([()], allow_empty=True).has_empty

    def test_hypergraph_membership_and_set_operations(self):
        h = Hypergraph([(2, 1), (0,), [3, 1, 2]])
        assert (1, 2) in h and [2, 1] in h and (3, 2, 1) in h and (0,) in h
        assert (0, 1) not in h and () not in h and not h.has_empty
        assert h.restrict((0, 1, 2)) == Hypergraph([(0,), (1, 2)])
        assert h.union(Hypergraph([()], allow_empty=True)).has_empty
        assert h.difference(Hypergraph([(1, 2)])) == Hypergraph([(0,), (1, 2, 3)])


def _sorted_scopes(edges) -> tuple:
    """The reference a hypergraph is checked against: its canonical scopes
    as one sorted tuple."""
    return tuple(sorted({tuple(sorted(set(e))) for e in edges}))


def _agrees(h: Hypergraph, ref: tuple, probes) -> None:
    assert h.edges == ref and tuple(h) == ref
    assert len(h) == len(ref)
    assert h == Hypergraph._of(reversed(ref)) and hash(h) == hash(Hypergraph._of(ref))
    assert h != Hypergraph._of(ref + ((99,),))
    assert all((p in h) == (varset(p) in ref) and (p[::-1] in h) == (varset(p) in ref)
               for p in probes)
    assert h.has_empty == (() in ref)


scope_lists = st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=10)


class TestHypergraphSet:
    """A hypergraph keeps one frozenset; it must act as the sorted tuple of
    its canonical scopes would."""

    @settings(max_examples=150, deadline=None)
    @given(scope_lists, scope_lists, st.lists(st.integers(0, 5), max_size=6))
    def test_matches_the_sorted_tuple_reference(self, xs, ys, a):
        if any(not e for e in xs):
            with pytest.raises(InvalidInputError):
                Hypergraph(xs)
        else:
            _agrees(Hypergraph(xs), _sorted_scopes(xs), xs + ys)
        h, k = Hypergraph(xs, allow_empty=True), Hypergraph(ys, allow_empty=True)
        hr, kr = _sorted_scopes(xs), _sorted_scopes(ys)
        probes = xs + ys + [a]
        _agrees(h, hr, probes)
        _agrees(k, kr, probes)
        _agrees(Hypergraph._of(varset(e) for e in xs), hr, probes)
        _agrees(h.union(k), _sorted_scopes(hr + kr), probes)
        _agrees(h.difference(k), tuple(e for e in hr if e not in kr), probes)
        _agrees(h.restrict(a), tuple(e for e in hr if set(e) <= set(a)), probes)
        assert (h == k) == (hr == kr)


class TestSerializationOrder:
    def test_last_scope_variable_fastest(self):
        # normative file order: assignment-major, last scope variable fastest
        v = binary_vars(2)
        t = InteractionTable((0, 1), np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert t.ravel() == [0.0, 1.0, 2.0, 3.0]
        assert t.values[0, 1] == 1.0  # first variable slow, second fast

    def test_tables_are_immutable(self):
        t = InteractionTable((0,), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            t.values[0] = 5.0


class TestEnergy:
    def test_all_ones_assignment(self, raw):
        # 2*t12 + t13 + t23 + t45 + t56 at the given thetas
        assert energy(raw, [1, 1, 1, 1, 1, 1]) == pytest.approx(1.3, abs=1e-12)

    def test_all_zero_assignment_of_normalized_potential(self, expected_normalized):
        assert energy(expected_normalized, [0] * 6) == 0.0

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            u = random_normalized_potential(rng, 6)
            values = rng.integers(0, 2, size=6).tolist()
            assert energy(u, values) == pytest.approx(energy_by_loops(u, values), abs=1e-12)

    def test_wrong_length_rejected(self, raw):
        with pytest.raises(InvalidInputError):
            energy(raw, [0, 1])

    def test_value_outside_domain_rejected(self, raw):
        with pytest.raises(InvalidInputError):
            energy(raw, [0, 0, 0, 0, 0, 7])


class TestNormalize:
    def test_monomial_form(self, raw, expected_normalized):
        assert tables_close(normalize_potential(raw), expected_normalized, 1e-12)

    def test_idempotent(self, raw):
        once = normalize_potential(raw)
        twice = normalize_potential(once)
        assert tables_close(once, twice, 1e-12)

    def test_output_is_normalized(self, raw):
        assert not is_normalized(raw)
        assert is_normalized(normalize_potential(raw))

    def test_density_preserved(self):
        rng = np.random.default_rng(59)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            u = random_normalized_potential(rng, n)
            # perturb into an un-normalized equivalent by splitting a table
            tables = list(u.tables)
            if tables:
                t = tables[0]
                tables[0] = InteractionTable(t.scope, t.values + 0.8)
            u0 = Potential(u.vars, tables)
            un = normalize_potential(u0)
            h0 = energy_grid(u0, u.vars.all_ids())
            h1 = energy_grid(un, u.vars.all_ids())
            d0 = np.exp(-(h0 - h0.min()))
            d1 = np.exp(-(h1 - h1.min()))
            d0 /= d0.sum()
            d1 /= d1.sum()
            assert np.max(np.abs(d0 - d1) / d0) <= 1e-9

    def test_agrees_with_oracle_recovery(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            u = random_normalized_potential(rng, n)
            tables = [InteractionTable(t.scope, t.values + 0.31) for t in u.tables]
            u0 = Potential(u.vars, tables)
            assert tables_close(normalize_potential(u0),
                                normalized_potential_from_table(joint_table(u0)), 1e-9)

    def test_finer_factorization(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            u = random_normalized_potential(rng, 6)
            tables = [InteractionTable(t.scope, t.values + 0.5) for t in u.tables]
            u0 = Potential(u.vars, tables)
            assert precedes(hypergraph_of(normalize_potential(u0)),
                            Hypergraph(t.scope for t in u0.tables))

    def test_split_above_the_state_limit_is_refused(self):
        # one binary table over n variables splits into 3^n - 1 entries
        rng = np.random.default_rng(71)
        wide = Potential(binary_vars(13), [InteractionTable(range(13), rng.uniform(size=(2,) * 13))])
        with pytest.raises(ResourceLimitError, match=f"{3 ** 13 - 1} table entries"):
            normalize_potential(wide)
        fits = Potential(binary_vars(12), [InteractionTable(range(12), rng.uniform(size=(2,) * 12))])
        assert 3 ** 12 - 1 <= STATE_LIMIT
        assert is_normalized(normalize_potential(fits))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_sum_that_overflows_is_refused(self):
        # each table's piece on (0,) holds 1.5e308, and their sum does not fit
        big = np.array([[0.0, 0.0], [1.5e308, 1.5e308]])
        u = Potential(binary_vars(3), [InteractionTable((0, 1), big), InteractionTable((0, 2), big)])
        with pytest.raises(InvalidInputError,
                           match=re.escape("non-finite entries in table for scope (0,)")):
            normalize_potential(u)


class TestIsNormalized:
    def test_monomial_potential_is_normalized(self, expected_normalized):
        assert is_normalized(expected_normalized)

    def test_shifted_pair_table_is_not(self):
        v = binary_vars(2)
        pair = np.array([[0.0, 0.3], [0.0, 0.6]])  # value 0.3 at (0, 1)
        assert not is_normalized(Potential(v, [InteractionTable((0, 1), pair)]))

    def test_empty_potential(self):
        assert is_normalized(Potential(binary_vars(3)))

    @pytest.mark.parametrize("off, expected", [
        (NORMALIZED_TOL, True), (np.nextafter(NORMALIZED_TOL, 1.0), False)])
    def test_one_member_of_a_stack_off_by_just_above_tol(self, off, expected):
        # five ternary pair tables of one shape and anchor, checked as one stack
        v = Variables([f"V{k}" for k in range(6)], [(-1.0, 0.0, 1.0)] * 6)
        tables = []
        for k in range(5):
            vals = np.where(zero_coord_mask((3, 3), (1, 1)), 0.0, 0.5 + k)
            if k == 3:
                vals[2, 1] = off
            tables.append(InteractionTable((k, k + 1), vals))
        u = Potential(v, tables)
        assert is_normalized(u) is expected
        assert is_normalized_by_tables(u, NORMALIZED_TOL) is expected


@st.composite
def anchored_tables(draw, max_vars: int = 6):
    """(registry, [(scope, values), ...]): domain sizes 2-4, each anchored
    at a drawn position, and tables of mixed magnitudes on random scopes of
    up to 3 variables, scopes repeating at times."""
    n = draw(st.integers(1, max_vars))
    sizes = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    zeros = [draw(st.integers(0, size - 1)) for size in sizes]
    variables = Variables([f"V{k}" for k in range(n)],
                          [[float(i - z) for i in range(size)] for size, z in zip(sizes, zeros)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scoped = []
    for _ in range(draw(st.integers(1, 12))):
        scope = varset(rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)),
                                  replace=False).tolist())
        shape = variables.sizes(scope)
        scoped.append((scope, rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)))
    return variables, scoped


def parts_of(variables: Variables, scoped) -> list:
    """(scope, values) tables as the (zp, scopes, values, rank) parts the
    stacked kernels take, grouped by shape and anchors, ranked by position."""
    like = {}
    for k, (scope, values) in enumerate(scoped):
        zp = tuple(variables.zero_index(v) for v in scope)
        like.setdefault((values.shape, zp), []).append((k, scope, values))
    return [(zp, np.array([s for _, s, _ in rows]), np.stack([v for _, _, v in rows]),
             np.array([k for k, _, _ in rows])) for (_, zp), rows in like.items()]


def tables_of(parts) -> dict:
    """Scope -> values of every row of ``parts``; no scope may repeat."""
    out = {}
    for _, scopes, values, _ in parts:
        for scope, vals in zip(map(tuple, scopes.tolist()), values):
            assert scope not in out
            out[scope] = vals
    return out


class TestStackedKernels:
    @settings(max_examples=80, deadline=None)
    @given(anchored_tables())
    def test_split_matches_the_table_by_table_split_bit_for_bit(self, case):
        variables, scoped = case
        got = tables_of(_split(parts_of(variables, scoped)))
        ref = split_by_tables(variables, scoped)
        assert sorted(got) == sorted(ref)
        for scope, values in ref.items():
            assert got[scope].shape == values.shape
            assert got[scope].tobytes() == values.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(anchored_tables(), st.data())
    def test_is_normalized_matches_the_per_table_check(self, case, data):
        variables, scoped = case
        tables = {}
        for scope, values in scoped:
            zp = tuple(variables.zero_index(v) for v in scope)
            tables[scope] = np.where(zero_coord_mask(values.shape, zp), 0.0, values)
        # one anchored entry of one table moves to within or just beyond the tolerance
        scope = data.draw(st.sampled_from(sorted(tables)))
        zp = tuple(variables.zero_index(v) for v in scope)
        on_anchor = np.argwhere(zero_coord_mask(tables[scope].shape, zp))
        at = tuple(on_anchor[data.draw(st.integers(0, len(on_anchor) - 1))])
        above = np.nextafter(NORMALIZED_TOL, 1.0)
        off = data.draw(st.sampled_from([0.0, NORMALIZED_TOL, -NORMALIZED_TOL, above, -above]))
        tables[scope][at] = off
        u = Potential(variables, [InteractionTable(s, v) for s, v in tables.items()])
        assert is_normalized(u) == is_normalized_by_tables(u, NORMALIZED_TOL)
        assert is_normalized(u) == (abs(off) <= NORMALIZED_TOL)


class TestRestrict:
    def test_keeps_contained_scopes(self, expected_normalized):
        r = restrict(expected_normalized, chain_retained())
        assert [t.scope for t in r.tables] == [(0, 2)]

    def test_full_set_is_identity(self, expected_normalized):
        r = restrict(expected_normalized, range(6))
        assert [t.scope for t in r.tables] == [t.scope for t in expected_normalized.tables]

    def test_empty_set(self, expected_normalized):
        assert len(restrict(expected_normalized, ())) == 0

    def test_ids_outside_the_registry_are_refused(self, expected_normalized):
        with pytest.raises(InvalidInputError, match=re.escape("ids [-1, 6, 9] outside the registry")):
            restrict(expected_normalized, (9, 0, 6, -1))


class TestHypergraphOf:
    def test_normalized_scopes(self, expected_normalized):
        assert hypergraph_of(expected_normalized) == Hypergraph(
            [(1,), (0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])

    def test_all_zero_family(self):
        v = binary_vars(3)
        zero = Potential(v, [InteractionTable((0, 1), np.zeros((2, 2)))])
        assert hypergraph_of(PotentialFamily([zero])) == Hypergraph([])

    def test_existential_over_members(self):
        v = binary_vars(2)
        zero = Potential(v, [InteractionTable((0, 1), np.zeros((2, 2)))])
        live = Potential(v, [InteractionTable((0, 1), np.array([[0.0, 0.0], [0.0, 0.9]]))])
        assert hypergraph_of(PotentialFamily([zero, live])) == Hypergraph([(0, 1)])


class TestInducedGraph:
    def test_chain_model_graph(self, expected_normalized):
        g = induced_graph(hypergraph_of(expected_normalized), range(6))
        assert g.edge_list == [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)]

    def test_singletons_give_edgeless_graph(self):
        g = induced_graph(Hypergraph([(0,), (1,), (2,)]), range(3))
        assert not g.edges

    def test_single_hyperedge_gives_clique(self):
        g = induced_graph(Hypergraph([(0, 1, 2, 3)]), range(5))
        assert is_complete(g, (0, 1, 2, 3)) and len(g.edges) == 6

    def test_hyperedge_outside_vertices_rejected(self):
        with pytest.raises(InvalidInputError):
            induced_graph(Hypergraph([(0, 9)]), range(3))


class TestPrecedes:
    def test_pair_versus_triple_model(self):
        pair_scopes = Hypergraph([(1,), (0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        triple_scopes = Hypergraph([(1,), (0, 1), (0, 2), (0, 1, 2), (1, 2), (3, 4), (4, 5)])
        assert precedes(pair_scopes, triple_scopes)
        assert not precedes(triple_scopes, pair_scopes)

    def test_reflexive(self):
        h = Hypergraph([(0, 1), (2,)])
        assert precedes(h, h)

    def test_empty_precedes_everything(self):
        assert precedes(Hypergraph([]), Hypergraph([(0,)]))


class TestBoundaryHypergraph:
    def test_chain_model(self, expected_normalized):
        h = hypergraph_of(expected_normalized)
        bh = boundary_hypergraph(h, range(6), chain_retained())
        assert bh == Hypergraph([(0, 2), (4,)])

    def test_keeping_everything(self, expected_normalized):
        h = hypergraph_of(expected_normalized)
        assert boundary_hypergraph(h, range(6), range(6)) == Hypergraph([])

    def test_isolated_eliminated_vertex_flagged(self):
        h = Hypergraph([(0, 1)])
        bh = boundary_hypergraph(h, range(3), (0, 1))  # vertex 2 has no neighbors
        assert bh.has_empty and bh == Hypergraph([()], allow_empty=True)

    def test_vertex_ids_with_gaps_and_hyperedges_outside_them(self):
        # positions in the vertex set differ from the ids
        h = Hypergraph([(2, 5), (5, 7), (7,), (7, 9)])
        assert boundary_hypergraph(h, (2, 5, 7, 9, 11, 13), (2, 9, 11)) == Hypergraph(
            [(2, 9), ()], allow_empty=True)
        with pytest.raises(InvalidInputError, match="not contained in the vertex set"):
            boundary_hypergraph(Hypergraph([(2, 5), (5, 8)]), (2, 5, 7), (2,))
        with pytest.raises(InvalidInputError, match="outside the vertex set"):
            boundary_hypergraph(h, (2, 5, 7, 9), (3,))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_hyperedges_complete_in_induced_graph(seed):
    rng = np.random.default_rng(seed)
    u = random_normalized_potential(rng, 6)
    h = hypergraph_of(u)
    g = induced_graph(h, u.vars.all_ids())
    assert all(is_complete(g, e) for e in h)


NULL_TOL_CALLS = {
    "normalize_potential": lambda u, tol: normalize_potential(u, tol),
    "marginalize_hypergraph": lambda u, tol: marginalize_hypergraph(u, (0, 2), tol),
    "innovations": lambda u, tol: innovations(u, (0, 2), tol),
    "hypergraph_of": lambda u, tol: hypergraph_of(u, tol),
    "normalized_potential_from_table":
        lambda u, tol: normalized_potential_from_table(joint_table(u), tol),
}


@pytest.mark.parametrize("null_tol", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("entry", sorted(NULL_TOL_CALLS))
def test_a_non_finite_or_negative_null_tol_is_refused(entry, null_tol):
    # as the Gaussian calls refuse such a tol: a NaN cut kept no table, so a
    # marginal came back empty and parametrically collapsible
    u = Potential(binary_vars(3), [InteractionTable((k, k + 1), np.array([[0.0, 0.0], [0.0, 0.8]]))
                                   for k in range(2)])
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"null_tol must be a finite number >= 0, got {null_tol!r}")):
        NULL_TOL_CALLS[entry](u, null_tol)
