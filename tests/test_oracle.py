import numpy as np
import pytest

from margraph import (
    DensityTable,
    InteractionTable,
    InvalidInputError,
    Potential,
    ResourceLimitError,
    hypergraph_of,
    joint_table,
    marginal_table,
    normalize_potential,
    normalized_potential_from_table,
    varset,
)

from fixture_models import (
    monomial_potential,
    triangle_chain_normalized_terms,
    triangle_chain_raw_potential,
)
from helpers import binary_vars, random_normalized_potential

THETAS = (0.3, -0.7, 1.1, 0.5, -0.2)


def tables_close(u, v, tol):
    scopes = {t.scope for t in u.tables} | {t.scope for t in v.tables}
    for s in scopes:
        a = u.table_for(s)
        b = v.table_for(s)
        av = a.values if a is not None else 0.0
        bv = b.values if b is not None else 0.0
        if np.max(np.abs(av - bv)) > tol:
            return False
    return True


class TestJointTable:
    def test_single_binary_variable(self):
        alpha = 0.7
        v = binary_vars(1)
        u = Potential(v, [InteractionTable((0,), np.array([0.0, alpha]))])
        t = joint_table(u)
        k = 1.0 + np.exp(-alpha)
        assert t.probs[0] == pytest.approx(1.0 / k, abs=1e-15)
        assert t.probs[1] == pytest.approx(np.exp(-alpha) / k, abs=1e-15)

    def test_empty_potential_is_uniform(self):
        t = joint_table(Potential(binary_vars(4)))
        assert np.allclose(t.probs, 1.0 / 16.0)

    def test_block_independence(self):
        # triangle on V1V2V3 and chain V4-V5-V6 share no interaction, so the
        # joint is the product of the two block marginals
        u = triangle_chain_raw_potential(*THETAS)
        t = joint_table(u)
        left = marginal_table(t, (0, 1, 2)).probs
        right = marginal_table(t, (3, 4, 5)).probs
        product = left[:, :, :, None, None, None] * right[None, None, None, :, :, :]
        assert np.max(np.abs(t.probs - product)) < 1e-14

    def test_state_space_limit(self):
        u = Potential(binary_vars(21))
        with pytest.raises(ResourceLimitError):
            joint_table(u)


class TestMarginalTable:
    def test_full_scope_is_identity(self):
        rng = np.random.default_rng(71)
        u = random_normalized_potential(rng, 5)
        t = joint_table(u)
        m = marginal_table(t, t.scope)
        assert np.array_equal(m.probs, t.probs)

    def test_uniform_stays_uniform(self):
        t = joint_table(Potential(binary_vars(5)))
        m = marginal_table(t, (0, 3))
        assert np.allclose(m.probs, 0.25)

    def test_stepwise_marginalization_consistent(self):
        rng = np.random.default_rng(73)
        u = random_normalized_potential(rng, 6)
        t = joint_table(u)
        one_step = marginal_table(t, (0, 2))
        two_step = marginal_table(marginal_table(t, (0, 2, 4, 5)), (0, 2))
        assert np.max(np.abs(one_step.probs - two_step.probs)) < 1e-15

    def test_commutes_with_variable_relabeling(self):
        # permuting the registry and permuting the result agree
        rng = np.random.default_rng(79)
        u = random_normalized_potential(rng, 5)
        perm = rng.permutation(5).tolist()  # new id -> old id
        inv = {old: new for new, old in enumerate(perm)}
        relabeled = Potential(
            binary_vars(5),
            [InteractionTable(varset(inv[v] for v in t.scope),
                              np.transpose(t.values,
                                           np.argsort([inv[v] for v in t.scope])))
             for t in u.tables])
        a = (0, 2)
        direct = marginal_table(joint_table(u), a)
        mapped = marginal_table(joint_table(relabeled), varset(inv[v] for v in a))
        back = np.transpose(mapped.probs,
                            np.argsort(np.argsort([inv[v] for v in a])))
        assert np.max(np.abs(direct.probs - back)) < 1e-14

    def test_subset_must_be_inside_scope(self):
        t = joint_table(Potential(binary_vars(3)))
        with pytest.raises(InvalidInputError):
            marginal_table(t, (0, 9))


class TestNormalizedPotentialRecovery:
    def test_uniform_gives_empty_potential(self):
        t = joint_table(Potential(binary_vars(3)))
        assert len(normalized_potential_from_table(t)) == 0

    def test_round_trip_of_monomial_model(self):
        u = monomial_potential(binary_vars(6), triangle_chain_normalized_terms(*THETAS))
        rec = normalized_potential_from_table(joint_table(u))
        assert tables_close(rec, u, 1e-9)

    def test_raw_model_recovers_the_same_normalized_form(self):
        raw = triangle_chain_raw_potential(*THETAS)
        expected = monomial_potential(binary_vars(6),
                                      triangle_chain_normalized_terms(*THETAS))
        rec = normalized_potential_from_table(joint_table(raw))
        assert tables_close(rec, expected, 1e-9)

    def test_non_positive_table_rejected(self):
        v = binary_vars(1)
        with pytest.raises(InvalidInputError):
            DensityTable(v, (0,), np.array([1.0, 0.0]))

    def test_round_trip_matches_normalize_potential(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            u = random_normalized_potential(rng, n)
            shifted = Potential(
                u.vars,
                [InteractionTable(t.scope, t.values + 0.4) for t in u.tables])
            assert tables_close(normalized_potential_from_table(joint_table(shifted)),
                                normalize_potential(shifted), 1e-9)

    def test_recovered_hypergraph_matches_source(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            u = random_normalized_potential(rng, 6)
            rec = normalized_potential_from_table(joint_table(u))
            assert hypergraph_of(rec) == hypergraph_of(u)
