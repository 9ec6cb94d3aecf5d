"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured runtime (run with ``pytest -s`` to see them).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from margraph import (
    GaussianModel,
    Graph,
    Hypergraph,
    boundary,
    connectivity_components,
    eliminate_vertex,
    energy_grid,
    hypergraph_of,
    induced_graph,
    innovation_matrix,
    innovations,
    is_normalized,
    joint_table,
    marginal_precision,
    marginal_table,
    marginalize_graph,
    marginalize_hypergraph,
    normalize_potential,
    normalized_potential_from_table,
    subgraph,
    varset,
)
from margraph.potentials import InteractionTable, Potential

from fixture_models import (
    cancelling_pair_coupling,
    chain_potential,
    chain_retained,
    damage_graph,
    damage_retained,
    random_precision_on,
    two_chain_graph,
)
from helpers import (
    chain_innovation_closed_forms,
    random_graph,
    random_normalized_potential,
)

KEEP = chain_retained()


class _Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(n, message, watch):
    print(f"\nACCEPTANCE {n} PASS: {message} [{watch.elapsed:.2f}s]")


def test_criterion_1_two_chain_marginal_graph():
    with _Stopwatch() as w:
        expected = Graph.from_edges((0, 2, 4), [(0, 2)])
        for with_chord in (False, True):
            _, g = two_chain_graph(with_chord=with_chord)
            assert marginalize_graph(g, KEEP) == expected
    assert w.elapsed < 1.0
    _report(1, "both chain variants marginalize to ({V1,V3,V5}, {(V1,V3)})", w)


def test_criterion_2_chain_hypergraph_and_innovation_closed_forms():
    rng = np.random.default_rng(2024)
    with _Stopwatch() as w:
        draws = [(1.0, 1.0, 1.0, 1.0)]
        for _ in range(5):
            draws.append(tuple(
                float(rng.uniform(0.3, 1.5) * rng.choice([-1, 1])) for _ in range(4)))
        for a12, a23, a45, a56 in draws:
            u = chain_potential(a12, a23, a45, a56)
            rep = marginalize_hypergraph(u, KEEP)
            assert rep.marginal_hypergraph == Hypergraph([(0,), (2,), (0, 2), (4,)])
            assert rep.marginal_graph() == Graph.from_edges((0, 2, 4), [(0, 2)])
            got = {i.scope: i.table.values for i in innovations(u, KEEP)}
            expected = chain_innovation_closed_forms(a12, a23, a45, a56)
            assert set(got) == set(expected)
            for scope, vals in expected.items():
                assert np.max(np.abs(got[scope] - vals)) <= 1e-12
    assert w.elapsed < 1.0
    _report(2, "chain model marginal hypergraph and innovation tables (1e-12)", w)


def test_criterion_3_pair_cancellation_splits_the_routes():
    with _Stopwatch() as w:
        a12 = a23 = 1.0
        a13 = float(cancelling_pair_coupling(a12, a23))
        u = chain_potential(a12, a23, 1.0, 1.0, a13=a13)
        pair = {i.scope: i.table.values for i in innovations(u, KEEP)}[(0, 2)]
        chord = u.table_for((0, 2)).values
        assert np.max(np.abs(pair + chord)) <= 1e-9  # combined table is null
        rep = marginalize_hypergraph(u, KEEP)
        assert rep.marginal_hypergraph == Hypergraph([(0,), (2,), (4,)])
        assert rep.removed == Hypergraph([(0, 2)])
        assert not rep.marginal_graph().edges
        g = induced_graph(hypergraph_of(u), u.vars.all_ids())
        assert (0, 2) in marginalize_graph(g, KEEP).edges
    assert w.elapsed < 1.0
    _report(3, "tuned coupling removes (V1,V3) from the hypergraph route only", w)


def test_criterion_4_damage_case_study():
    with _Stopwatch() as w:
        _, g = damage_graph()
        kept = damage_retained()
        dropped = varset(set(g.vertices) - set(kept))
        comps = connectivity_components(subgraph(g, dropped))
        assert comps == [(4, 6, 12, 13, 14, 15, 16, 21), (22,)]
        assert boundary(g, comps[0]) == (1, 3, 7)
        assert boundary(g, comps[1]) == (5,)
        m = marginalize_graph(g, kept)
        assert m.edges == subgraph(g, kept).edges | {(1, 7)}
    assert w.elapsed < 1.0
    _report(4, "24-variable damage graph gains exactly the (X2,X8) edge", w)


def test_criterion_5_gaussian_schur_oracle():
    rng = np.random.default_rng(505)
    _, dmg = damage_graph()
    kept = damage_retained()
    pos = {v: k for k, v in enumerate(kept)}
    with _Stopwatch() as w:
        checked = 0
        for _ in range(100):  # damage sparsity pattern
            m = GaussianModel(np.zeros(24), random_precision_on(dmg, rng))
            mp = marginal_precision(m, kept)
            cov = np.linalg.inv(m.precision)
            oracle = np.linalg.inv(cov[np.ix_(kept, kept)])
            rel = np.linalg.norm(mp.precision - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8
            gamma = innovation_matrix(m, kept)
            assert abs(gamma[pos[1], pos[7]]) > 1e-9  # the X2-X8 innovation
            checked += 1
        for _ in range(60):  # generic sparsity, n <= 30
            n = int(rng.integers(2, 31))
            g = random_graph(rng, n, 0.4)
            m = GaussianModel(np.zeros(n), random_precision_on(g, rng))
            a = varset(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            mp = marginal_precision(m, a)
            cov = np.linalg.inv(m.precision)
            oracle = np.linalg.inv(cov[np.ix_(a, a)])
            rel = np.linalg.norm(mp.precision - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8
            checked += 1
        assert checked >= 100
    assert w.elapsed < 10.0
    _report(5, f"{checked} Schur complements match the covariance oracle (1e-8)", w)


def test_criterion_6_master_oracle_property():
    rng = np.random.default_rng(606)
    with _Stopwatch() as w:
        models = 0
        while models < 500:
            n = int(rng.integers(2, 11))
            max_scope = int(rng.integers(2, 5))
            u = random_normalized_potential(rng, n, max_scope=max_scope)
            a = varset(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            rep = marginalize_hypergraph(u, a)
            marg = marginal_table(joint_table(u), a)
            grid = energy_grid(rep.marginal_potential, a)
            dens = np.exp(-(grid - grid.min()))
            dens /= dens.sum()
            assert np.max(np.abs(dens - marg.probs) / marg.probs) <= 1e-9
            recovered = normalized_potential_from_table(marg)
            assert hypergraph_of(recovered) == rep.marginal_hypergraph
            models += 1
    assert w.elapsed < 60.0
    _report(6, f"{models} random models: marginal density and hypergraph match the oracle", w)


def test_criterion_7_elimination_order_invariance():
    rng = np.random.default_rng(707)
    with _Stopwatch() as w:
        graphs = 0
        while graphs < 200:
            n = int(rng.integers(2, 16))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
            a = varset(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            target = marginalize_graph(g, a)
            eliminated = [v for v in range(n) if v not in set(a)]
            for _ in range(5):
                order = rng.permutation(eliminated).tolist()
                h = g
                for v in order:
                    h = eliminate_vertex(h, v)
                assert h == target
            graphs += 1
    _report(7, f"{graphs} graphs x 5 elimination orders equal the marginal operator", w)


def test_criterion_8_normalization_round_trip():
    rng = np.random.default_rng(808)
    with _Stopwatch() as w:
        for _ in range(40):
            n = int(rng.integers(2, 9))
            base = random_normalized_potential(rng, n)
            shift = rng.uniform(0.2, 1.0)
            u0 = Potential(base.vars, [InteractionTable(t.scope, t.values + shift)
                                       for t in base.tables])
            u1 = normalize_potential(u0)
            assert is_normalized(u1)  # structural zeros hold at 1e-12
            u2 = normalize_potential(u1)
            scopes = {t.scope for t in u1.tables} | {t.scope for t in u2.tables}
            for s in scopes:
                a = u1.table_for(s)
                b = u2.table_for(s)
                av = a.values if a is not None else 0.0
                bv = b.values if b is not None else 0.0
                assert np.max(np.abs(av - bv)) <= 1e-12  # idempotent
            recovered = normalized_potential_from_table(joint_table(u0))
            scopes = {t.scope for t in u1.tables} | {t.scope for t in recovered.tables}
            for s in scopes:
                a = u1.table_for(s)
                b = recovered.table_for(s)
                av = a.values if a is not None else 0.0
                bv = b.values if b is not None else 0.0
                assert np.max(np.abs(av - bv)) <= 1e-9  # matches the oracle
    _report(8, "normalization is idempotent, structurally exact, and oracle-consistent", w)
