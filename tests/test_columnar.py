"""The columnar storage of potentials against table-by-table references.

Every kernel that works on the stacks of a potential (the Mobius split of
normalization, the masked normalization check, null filtering, restriction
and the ordered sums of the marginal) must agree bit for bit with a loop
over single tables, whatever the grouping: -0.0 entries, tables exactly at
the null tolerance and one ulp above it, mixed domain sizes and anchors,
and family members that do and do not share scopes.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margraph import (
    NULL_TOL,
    InteractionTable,
    InvalidInputError,
    Potential,
    PotentialFamily,
    Variables,
    hypergraph_of,
    is_normalized,
    marginalize_hypergraph,
    normalize_potential,
    restrict,
    varset,
)
from margraph import potentials
from margraph.hypergraph_marginal import (
    EliminationPlan,
    _checked_plan,
    _plans,
    innovations,
)
from margraph.potentials import (
    NORMALIZED_TOL,
    SPLIT_PLAN_CACHE_ENTRIES,
    _drop_null,
    _normalize_layout,
)

from fixture_models import grid_potential, grid_retained
from helpers import (
    ReferencePlan,
    arrays_in,
    binary_vars,
    innovations_by_components,
    innovation_potentials,
    is_normalized_by_tables,
    member_folds,
    normalized_pieces,
    split_by_tables,
    split_parts,
    sum_parts,
    zero_coord_mask,
)

ABOVE_NULL = float(np.nextafter(NULL_TOL, 1.0))


def _table(rng: np.random.Generator, shape, zp, kind: str) -> np.ndarray:
    """A raw table, a normalized one whose max-abs entry is exactly NULL_TOL
    or one ulp above it, or a normalized one with an anchored entry between
    NORMALIZED_TOL and NULL_TOL; some entries are -0.0."""
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    if kind == "nearly":
        vals = np.where(zero_coord_mask(shape, zp), 0.0, vals)
        vals[(0,) * len(shape) if zp[0] else (zp[0],) + (0,) * (len(shape) - 1)] = 1e-10
    elif kind != "raw":
        vals = np.where(zero_coord_mask(shape, zp), 0.0, vals)
        vals *= (NULL_TOL if kind == "at-null" else ABOVE_NULL) / np.max(np.abs(vals))
        vals[np.unravel_index(np.argmax(np.abs(vals)), shape)] = \
            NULL_TOL if kind == "at-null" else ABOVE_NULL
    vals[rng.random(size=shape) < 0.2] = -0.0
    return vals


@st.composite
def columnar_potentials(draw, max_vars: int = 6, width: tuple[int, int] | None = None):
    """Potentials on domains anchored anywhere, with raw tables and
    normalized ones at and just above the null tolerance: 0-10 tables on
    scopes of 1-3 variables with domains of 2-4 values or, given a
    ``width`` range, 1-4 tables on scopes of one width drawn from it, with
    domains of 2 values but for at most three of 3 (which keeps a split
    below 4^3 * 3^7 entries)."""
    n = draw(st.integers(width[0] if width else 1, max_vars))
    if width:
        sizes = [2] * n
        for v in draw(st.sets(st.integers(0, n - 1), max_size=3)):
            sizes[v] = 3
    else:
        sizes = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    zeros = [draw(st.integers(0, size - 1)) for size in sizes]
    variables = Variables([f"V{k}" for k in range(n)],
                          [[float(i - z) for i in range(size)] for size, z in zip(sizes, zeros)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if width:
        k = draw(st.integers(width[0], min(width[1], n)))
        scopes = {varset(rng.choice(n, size=k, replace=False).tolist())
                  for _ in range(draw(st.integers(1, 4)))}
    else:
        scopes = {varset(rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)),
                                    replace=False).tolist())
                  for _ in range(draw(st.integers(0, 10)))}
    tables = []
    for scope in sorted(scopes):
        kind = draw(st.sampled_from(["raw", "raw", "at-null", "above-null", "nearly"]))
        zp = tuple(variables.zero_index(v) for v in scope)
        tables.append(InteractionTable(scope, _table(rng, variables.sizes(scope), zp, kind)))
    return Potential(variables, tables)


@st.composite
def signed_zero_families(draw):
    """Families of normalized potentials whose tables hold -0.0 and exact
    zeros, at anchored entries and elsewhere, scaled up to 400x so that
    some folds come out exactly zero: chains of 3-7 binary or ternary
    variables with singletons and maybe a triple, and 1-3 members that
    drop or negate tables; a random non-empty retained set."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(3, 7))
    sizes = [int(rng.integers(2, 4)) for _ in range(n)]
    variables = Variables([f"V{k}" for k in range(n)],
                          [[float(i) for i in range(size)] for size in sizes])
    scopes = {(k, k + 1) for k in range(n - 1)} | {(k,) for k in range(n) if rng.random() < 0.5}
    if rng.random() < 0.5:
        scopes.add(varset(rng.choice(n, size=3, replace=False).tolist()))
    scale = draw(st.sampled_from([1.0, 20.0, 400.0]))
    members = []
    for k in range(draw(st.integers(1, 3))):
        tables = []
        for scope in sorted(scopes):
            if k and rng.random() < 0.3:
                continue
            shape = variables.sizes(scope)
            vals = rng.uniform(-1.0, 1.0, size=shape) * scale
            vals[rng.random(size=shape) < 0.2] = 0.0
            vals[zero_coord_mask(shape, (0,) * len(scope))] = 0.0
            vals[rng.random(size=shape) < 0.4] *= -1.0  # turns some zeros into -0.0
            tables.append(InteractionTable(scope, vals))
        members.append(Potential(variables, tables))
    keep = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return PotentialFamily(members), varset(keep)


def _layout(u: Potential) -> list:
    """Every group of ``u``: shape, anchors, scopes, values and max-abs, as bytes."""
    return sorted((g.values.shape, g.zp, g.scopes.tobytes(), g.values.tobytes(),
                   g.max_abs.tobytes()) for g in u._groups)


def _same_tables(got: Potential, ref: dict) -> None:
    assert got.scopes() == sorted(ref)
    for t in got.tables:
        assert t.values.tobytes() == ref[t.scope].tobytes()
        assert t.max_abs == np.max(np.abs(ref[t.scope]))


class TestKernelsAgainstTables:
    @settings(max_examples=100, deadline=None)
    @given(columnar_potentials())
    def test_normalize_matches_the_table_by_table_split(self, u):
        ref = split_by_tables(u.vars, [(t.scope, t.values) for t in u.tables])
        _same_tables(normalize_potential(u),
                     {s: v for s, v in ref.items() if np.max(np.abs(v)) > NULL_TOL})

    @settings(max_examples=100, deadline=None)
    @given(columnar_potentials())
    def test_is_normalized_matches_the_per_table_check(self, u):
        for tol in (NORMALIZED_TOL, 0.0, NULL_TOL, NORMALIZED_TOL):
            assert is_normalized(u, tol) == is_normalized_by_tables(u, tol)
        assert is_normalized(normalize_potential(u))

    @settings(max_examples=100, deadline=None)
    @given(columnar_potentials(), st.data())
    def test_null_filter_and_restrict_are_row_masks(self, u, data):
        kept = _drop_null(u, NULL_TOL)
        _same_tables(kept, {t.scope: t.values for t in u.tables if t.max_abs > NULL_TOL})
        a = data.draw(st.sets(st.integers(0, len(u.vars) - 1)))
        _same_tables(restrict(u, a), {t.scope: t.values for t in u.tables if set(t.scope) <= a})


def _family(u: Potential, rng: np.random.Generator, members: int) -> PotentialFamily:
    """Normalized members: ``u`` itself, then copies that drop, negate or
    scale tables, so the members share some scopes and not others."""
    out = [u]
    for _ in range(members - 1):
        tables = [InteractionTable(t.scope, t.values * rng.choice([-1.0, 0.5, 2.0]))
                  for t in u.tables if rng.random() < 0.7]
        out.append(Potential(u.vars, tables))
    return PotentialFamily(normalize_potential(m) for m in out)


def _marginal_by_tables(family: PotentialFamily, keep) -> tuple[list[dict], set, set, set]:
    """Reference marginal: per member, the restricted tables plus the
    component-by-component innovations, summed per scope in that order and
    null-filtered; then the family-wide removed, kept and added scopes."""
    clean = [Potential(m.vars, [t for t in m.tables if t.max_abs > NULL_TOL]) for m in family]
    plan = ReferencePlan(hypergraph_of(clean), family.vars.all_ids(), keep)
    present, innovation_scopes, marginals = set(), set(), []
    for m in clean:
        combined = {t.scope: np.array(t.values) for t in m.tables if set(t.scope) <= set(keep)}
        for s, v in innovations_by_components(m, plan, NULL_TOL).items():
            innovation_scopes.add(s)
            combined[s] = combined[s] + v if s in combined else np.array(v)
        marginals.append({s: v for s, v in combined.items() if np.max(np.abs(v)) > NULL_TOL})
        present |= set(marginals[-1])
    restricted = {e for e in hypergraph_of(clean) if set(e) <= set(keep)}
    added = {s for s in innovation_scopes if s not in restricted and s in present}
    return marginals, restricted - present, restricted & present, added


class TestOrderedSums:
    def test_rows_of_one_scope_add_in_rank_order(self):
        # rows ranked 2, 0, 1 on one scope sum as (a + b) + c in rank order
        a, b, c = 1e16, 1.0, -1e16
        part = ((0,), np.array([[3], [3], [3]]), np.array([[c], [a], [b]]), np.array([2, 0, 1]))
        [(_, scopes, total, rank)] = sum_parts([part])
        assert scopes.tolist() == [[3]] and rank.tolist() == [0]
        assert total[0, 0] == (a + b) + c != (a + c) + b
        # the first row starts the sum, so its -0.0 survives
        single = ((0,), np.array([[3]]), np.array([[-0.0]]), np.array([0]))
        assert np.signbit(sum_parts([single])[0][2][0, 0])

    @settings(max_examples=100, deadline=None)
    @given(signed_zero_families())
    def test_folds_return_no_negative_zero(self, case):
        # a bucket's energy starts from its first table, so a -0.0 can reach
        # a step's result; the fold's total starts from its constant, which
        # makes every zero it returns +0.0
        family, keep = case
        clean, _, plan = _checked_plan(family.members, keep, NULL_TOL)
        for folds in member_folds(clean, plan):
            for _, _, values in folds:
                assert not np.signbit(values[values == 0]).any()

    @settings(max_examples=60, deadline=None)
    @given(columnar_potentials(max_vars=8, width=(1, 8)), st.integers(0, 5))
    def test_the_pieces_of_a_lone_row_are_their_own_sum(self, u, rank):
        # a split of one row returns its pieces unsummed: one row per
        # sub-scope, in lexicographic order, as the sum would return them
        g = u._groups[0]
        pieces = split_parts([(g.zp, g.scopes[:1], g.values[:1], np.array([rank]))])
        summed = sum_parts(pieces)
        assert len(pieces) == len(summed)
        for (zp, scopes, values, ranks), (zp2, scopes2, values2, ranks2) in zip(pieces, summed):
            assert zp == zp2
            assert scopes.tolist() == scopes2.tolist()
            assert ranks.tolist() == ranks2.tolist()
            assert values.shape == values2.shape
            assert values.tobytes() == values2.tobytes()

    def test_pieces_add_in_table_order_across_groups(self):
        # (2,) takes three pieces from tables in two groups; table order
        # interleaves the groups, and the other orders round differently
        v = Variables(["A", "B", "C", "D"])
        big = np.array([0.0, -1e16])
        for tables in ([((0, 2), np.array([[0.0, 0.3], [0.0, 1.0]])),
                        ((1, 2), np.array([[0.0, 1.0], [0.0, 0.7]])), ((2,), big)],
                       [((1, 2), np.array([[0.0, 0.3], [0.0, 1.0]])), ((2,), big),
                        ((2, 3), np.array([[0.0, 0.0], [1.0, 0.5]]))]):
            p, q, r = (dict(normalized_pieces(v, s, t))[(2,)][1] for s, t in tables)
            assert (p + q) + r != (p + r) + q
            got = normalize_potential(Potential(v, [InteractionTable(s, t) for s, t in tables]))
            _same_tables(got, {s: t for s, t in split_by_tables(v, tables).items()
                               if np.max(np.abs(t)) > NULL_TOL})

    def test_boundaries_with_different_anchors_split_on_their_own(self):
        # the eliminated 1 and 3 fold alike, onto (0, 2) and (2, 4) whose
        # anchors differ, so they fold in two stacks, one per boundary's
        # anchors, and split as two groups
        v = Variables([f"V{k}" for k in range(5)],
                      [(0.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])
        rng = np.random.default_rng(5)
        u = normalize_potential(Potential(v, [InteractionTable((k, k + 1), rng.normal(size=(2, 2)))
                                              for k in range(4)]))
        [u], _, plan = _checked_plan([u], (0, 2, 4), NULL_TOL)
        [folds] = member_folds([u], plan)
        assert len(folds) == 2
        [innovation] = innovation_potentials(plan, [u], NULL_TOL)
        got = {t.scope: t.values for t in innovation.tables}
        ref = innovations_by_components(u, plan, NULL_TOL)
        assert list(got) == list(ref) and (0, 2) in got and (2, 4) in got
        for scope, values in ref.items():
            assert got[scope].tobytes() == values.tobytes()


class TestWideScopes:
    @settings(max_examples=30, deadline=None)
    @given(columnar_potentials(max_vars=10, width=(4, 10)), st.data())
    def test_wide_splits_match_the_table_by_table_references(self, u, data):
        # scopes of 4-10 variables split into up to 1 023 sub-scopes each;
        # 1-3 variables of the first scope are eliminated
        gone = data.draw(st.sets(st.sampled_from(u.tables[0].scope), min_size=1, max_size=3))
        keep = varset(set(u.vars.all_ids()) - gone)
        ref = split_by_tables(u.vars, [(t.scope, t.values) for t in u.tables])
        normal = normalize_potential(u)
        _same_tables(normal, {s: v for s, v in ref.items() if np.max(np.abs(v)) > NULL_TOL})
        clean = _drop_null(normal, NULL_TOL)
        plan = ReferencePlan(hypergraph_of(clean), u.vars.all_ids(), keep)
        ref = innovations_by_components(clean, plan, NULL_TOL)
        got = innovations(normal, keep)
        assert [i.scope for i in got] == list(ref)
        for i in got:
            assert i.table.values.tobytes() == ref[i.scope].tobytes()

    def test_innovations_lists_the_innovation_potential(self):
        u, keep = grid_potential(), grid_retained()
        [u], _, plan = _checked_plan([u], keep, NULL_TOL)
        tables = innovation_potentials(plan, [u], NULL_TOL)[0].tables
        got = innovations(u, keep)
        assert len(got) == len(tables) > 500
        for i, t in zip(got, tables):
            assert i.scope == t.scope
            assert i.table.values.tobytes() == t.values.tobytes()


class TestMarginalAgainstTables:
    @settings(max_examples=80, deadline=None)
    @given(columnar_potentials(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.data())
    def test_marginal_family_matches_the_per_table_sums(self, u, members, seed, data):
        family = _family(u, np.random.default_rng(seed), members)
        keep = varset(data.draw(st.sets(st.integers(0, len(u.vars) - 1), min_size=1)))
        report = marginalize_hypergraph(family, keep)
        marginals, removed, kept, added = _marginal_by_tables(family, keep)
        for got, ref in zip(report.marginal_family, marginals):
            _same_tables(got, ref)
        assert set(report.removed) == removed
        assert set(report.kept) == kept
        assert set(report.added) == added


class TestStorage:
    def test_public_constructor_messages_are_unchanged(self):
        v = Variables(["A", "B", "C"], [(0.0, 1.0), (0.0, 1.0, 2.0), (-1.0, 0.0)])
        pair = InteractionTable((1,), np.array([0.0, 1.0, 2.0]))
        cases = [
            ([InteractionTable((), np.array(1.0))], "empty-scope table not allowed in a potential"),
            ([InteractionTable((0, 3), np.zeros((2, 2)))],
             "scope (0, 3) outside the variable registry"),
            ([InteractionTable((-1,), np.zeros(2))], "scope (-1,) outside the variable registry"),
            ([InteractionTable((0, 1), np.zeros((2, 2)))],
             "table for scope (0, 1) has shape (2, 2), expected (2, 3)"),
            ([pair, pair], "duplicate table for scope (1,)"),
        ]
        for tables, message in cases:
            with pytest.raises(InvalidInputError) as err:
                Potential(v, tables)
            assert str(err.value) == message

    def test_views_and_stacks_are_read_only(self):
        v = Variables(["A", "B"], [(0.0, 1.0), (-1.0, 0.0, 1.0)])
        u = normalize_potential(Potential(v, [
            InteractionTable((0, 1), np.array([[0.0, 1.0, 2.0], [3.0, 5.0, 4.0]])),
            InteractionTable((1,), np.array([0.5, 0.0, -0.5]))]))
        views = list(u.tables) + [u.table_for((0, 1)), u.table_for([1])]
        for t in views:
            assert not t.values.flags.writeable
            with pytest.raises(ValueError):
                t.values[(0,) * t.values.ndim] = 1.0
        for g in u._groups:
            for a in (g.scopes, g.values):
                assert not a.flags.writeable

    def test_the_public_constructor_keeps_no_table_objects(self):
        v = Variables(["A", "B"])
        t = InteractionTable((0, 1), np.array([[0.0, 0.0], [0.0, 1.0]]))
        gone = weakref.ref(t)
        u = Potential(v, [t])
        del t
        assert gone() is None
        assert u.tables[0] is not u.tables[0]
        assert u.tables[0].values.tobytes() == u.table_for((0, 1)).values.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(columnar_potentials())
    def test_a_potential_built_from_groups_equals_the_public_one(self, u):
        engine = normalize_potential(u)
        public = Potential(engine.vars, engine.tables)
        assert _layout(engine) == _layout(public)
        assert len(engine) == len(public) and engine.scopes() == public.scopes()
        assert _layout(Potential(u.vars, u.tables)) == _layout(u)


def _parts_bytes(parts: list) -> list:
    """Every output part: anchors, scopes, values and ranks, as bytes."""
    return [(zp, scopes.tolist(), values.shape, values.tobytes(), np.asarray(rank).tolist())
            for zp, scopes, values, rank in parts]


def _report_bytes(report) -> tuple:
    """The marginal tables as bytes, the five hypergraphs and both flags."""
    tables = [[(t.scope, t.values.tobytes()) for t in m.tables] for m in report.marginal_family]
    return (tables, report.marginal_hypergraph, report.added, report.removed, report.kept,
            report.innovation_scopes, report.graphically_collapsible,
            report.parametrically_collapsible)


def _misses() -> tuple:
    """Layouts built so far: normalization's count, and the plans kept."""
    return _normalize_layout.cache_info().misses, {id(plan) for plan in _plans.values()}


def _normalize_key(u: Potential) -> tuple:
    """The key of ``u``'s split layout, as ``normalize_potential`` builds it."""
    return tuple((g.zp, g.values.shape[1:], (g.scopes.shape, g.scopes.tobytes()))
                 for g in u._groups)


class TestRowLayouts:
    """The per-process memos of the symbolic half of sums and splits: the
    plan of each model structure on the hypergraph route, and the split
    layout of each potential structure in normalization."""

    @settings(max_examples=60, deadline=None)
    @given(columnar_potentials(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.data())
    def test_warm_calls_give_the_cold_bytes_and_build_no_layout(self, u, members, seed, data):
        family = _family(u, np.random.default_rng(seed), members)
        keep = varset(data.draw(st.sets(st.integers(0, len(u.vars) - 1), min_size=1)))

        def calls():
            return (_layout(normalize_potential(u)),
                    [[(i.scope, i.table.values.tobytes()) for i in innovations(m, keep)]
                     for m in family],
                    _report_bytes(marginalize_hypergraph(family, keep)))

        _normalize_layout.cache_clear()
        _plans.clear()
        cold = calls()
        misses = _misses()
        assert calls() == cold
        assert _misses() == misses

    def test_a_warm_normalization_reads_no_scope_rows(self, monkeypatch):
        # the table order that ranks the pieces is part of the kept layout
        rng = np.random.default_rng(30)
        v = Variables([f"V{k}" for k in range(5)],
                      [(0.0, 1.0), (-1.0, 0.0, 2.0)] * 2 + [(0.0, 1.0)])
        u = Potential(v, [InteractionTable(s, rng.normal(size=v.sizes(s)))
                          for s in ((0,), (0, 1), (1, 2), (1, 3, 4), (2, 4), (3,))])
        normalize_potential(u)
        calls, scope_rows = [], potentials._scope_rows
        monkeypatch.setattr(potentials, "_scope_rows",
                            lambda *args: calls.append(args) or scope_rows(*args))
        warm = _layout(normalize_potential(u))
        assert calls == []
        _normalize_layout.cache_clear()
        assert _layout(normalize_potential(u)) == warm
        assert len(calls) == 1

    def test_a_layout_is_not_reused_for_other_part_order_anchors_or_shapes(self):
        rng = np.random.default_rng(3)
        scopes = ((0, 1), (1, 2), (2,))
        binary = Variables(["A", "B", "C"])
        p = Potential(binary, [InteractionTable(s, rng.normal(size=binary.sizes(s)))
                               for s in scopes])
        cases = [Potential._of(binary, p._groups[::-1])]  # part order
        for domains in ([(0.0, 1.0), (-1.0, 0.0), (0.0, 1.0)],  # anchors
                        [(0.0, 1.0), (0.0, 1.0, 2.0), (0.0, 1.0)]):  # shapes
            v = Variables(["A", "B", "C"], domains)
            cases.append(Potential(v, [InteractionTable(s, rng.normal(size=v.sizes(s)))
                                       for s in scopes]))
        for other in cases:
            assert _normalize_key(other) != _normalize_key(p)
            _normalize_layout.cache_clear()
            cold = _layout(normalize_potential(other))
            _normalize_layout.cache_clear()
            normalize_potential(p)
            misses = _misses()[0]
            assert _layout(normalize_potential(other)) == cold
            assert _misses()[0] == misses + 1

    def test_the_layout_memo_stays_bounded(self):
        # k singletons of k variables: every potential is a new structure
        _normalize_layout.cache_clear()
        longest = _normalize_layout.cache_info().maxsize + 4
        for k in range(1, longest + 1):
            normalize_potential(Potential(binary_vars(k), [
                InteractionTable((j,), np.array([0.0, 1.0])) for j in range(k)]))
        info = _normalize_layout.cache_info()
        assert info.misses == longest
        assert info.currsize <= info.maxsize < longest

    @settings(max_examples=40, deadline=None)
    @given(signed_zero_families())
    def test_a_layout_holds_only_read_only_arrays(self, case):
        family, keep = case
        clean, _, plan = _checked_plan(family.members, keep, NULL_TOL)
        layouts = [getattr(plan, name) for name in EliminationPlan.__slots__]
        for m in clean:
            normalize_potential(m)
            layouts.append(_normalize_layout(_normalize_key(m)))
            assert _normalize_layout(_normalize_key(m)) is layouts[-1]
        arrays = arrays_in(layouts)
        assert arrays and not any(x.flags.writeable for x in arrays)

    def test_a_layout_over_the_budget_is_used_but_not_kept(self):
        # a 10-variable binary table splits through 3^10 - 1 = 59 048 entries,
        # within the budget; two of them gather 118 096, above it
        v = binary_vars(11)
        rng = np.random.default_rng(11)
        tables = [(s, rng.normal(size=(2,) * 10)) for s in (tuple(range(10)), tuple(range(1, 11)))]
        assert 3 ** 10 - 1 <= SPLIT_PLAN_CACHE_ENTRIES < 2 * (3 ** 10 - 1)
        for scoped, kept in ((tables[:1], 1), (tables, 0)):
            u = Potential(v, [InteractionTable(s, t) for s, t in scoped])
            _normalize_layout.cache_clear()
            got = [normalize_potential(u) for _ in range(2)]
            assert _normalize_layout.cache_info().currsize == kept
            ref = split_by_tables(v, scoped)
            for g in got:
                _same_tables(g, {s: t for s, t in ref.items() if np.max(np.abs(t)) > NULL_TOL})
