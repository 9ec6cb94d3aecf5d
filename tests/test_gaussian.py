import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, find, given, settings, strategies as st

from margraph import (
    GaussianModel,
    Graph,
    InvalidInputError,
    boundary,
    connectivity_components,
    gaussian_marginal_graph,
    innovation_matrix,
    marginal_precision,
    marginalize_graph,
    pattern_graph,
    subgraph,
    varset,
)
from margraph.components import adjacency, component_labels, reverse_cuthill_mckee
from margraph.gaussian import (
    BLOCK_FLOOR,
    SOLVE_LEAF,
    STRIP_ROWS,
    SYMMETRY_TOL,
    _asymmetry,
    _nonzeros,
    _prove_positive_definite,
    _scaled_tol,
    _solve_lower,
)

from fixture_models import (
    damage_gaussian,
    damage_gaussian_tuned,
    damage_graph,
    damage_retained,
    random_precision_on,
)
from helpers import (
    edges_by_loops,
    innovation_by_dense_scan,
    innovation_by_neighbour_sum,
    pairwise_innovation,
    random_graph,
    reverse_cuthill_mckee_by_queue,
)

KEEP = damage_retained()
X = {f"X{k}": k - 1 for k in range(1, 25)}  # label -> id


def random_spd(rng, n):
    g = random_graph(rng, n, 0.5)
    return random_precision_on(g, rng)


class TestModelValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError, match="symmetric"):
            GaussianModel([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_not_positive_definite_rejected(self):
        with pytest.raises(InvalidInputError, match="positive definite"):
            GaussianModel([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            GaussianModel([0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["precision", "mean"])
    def test_non_finite_reported_before_asymmetry(self, bad, where):
        # the precision's largest |entry| is read from its max and its min,
        # so the bad value is placed where the reductions start, run and end
        for mean_cell, prec_cell in ((0, (0, 0)), (2, (1, 2)), (3, (3, 3))):
            mean = np.zeros(4)
            prec = 2.0 * np.eye(4)
            prec[0, 3] = 0.5  # asymmetric: prec[3, 0] stays 0
            if where == "mean":
                mean[mean_cell] = bad
            else:
                prec[prec_cell] = bad
            with pytest.raises(InvalidInputError, match="non-finite"):
                GaussianModel(mean, prec)

    @pytest.mark.parametrize("n", [STRIP_ROWS + 1, 2 * STRIP_ROWS + 3])
    @pytest.mark.parametrize("pair", ["last", "straddle", "corner"])
    @pytest.mark.parametrize("upper", [True, False])
    def test_asymmetry_found_in_every_strip(self, n, pair, upper):
        i, j = {"last": (n - 2, n - 1), "straddle": (STRIP_ROWS - 1, STRIP_ROWS),
                "corner": (0, n - 1)}[pair]
        prec = 2.0 * np.eye(n)
        prec[i, j] = prec[j, i] = 0.5
        GaussianModel(np.zeros(n), prec.copy())
        prec[(i, j) if upper else (j, i)] += 1e-6
        with pytest.raises(InvalidInputError, match="not symmetric"):
            GaussianModel(np.zeros(n), prec)

    @pytest.mark.parametrize("diagonal", [0.5, 4.0])
    def test_symmetry_tolerance_is_inclusive(self, diagonal):
        # the tolerance scales with the largest |entry| once that exceeds 1
        bound = SYMMETRY_TOL * max(1.0, diagonal)
        prec = diagonal * np.eye(3)
        prec[2, 0] = bound
        GaussianModel(np.zeros(3), prec.copy())
        prec[2, 0] = np.nextafter(bound, np.inf)
        with pytest.raises(InvalidInputError, match="not symmetric"):
            GaussianModel(np.zeros(3), prec)

    def test_empty_model(self):
        m = GaussianModel(np.zeros(0), np.zeros((0, 0)))
        assert m.n == 0 and m.precision.shape == (0, 0)


class TestMarginalPrecision:
    def test_identity_precision(self):
        m = GaussianModel(np.arange(5.0), np.eye(5))
        mp = marginal_precision(m, (1, 3))
        assert np.array_equal(mp.precision, np.eye(2))
        assert np.array_equal(mp.mean, [1.0, 3.0])

    def test_keeping_everything(self):
        m = damage_gaussian()
        mp = marginal_precision(m, range(24))
        assert np.array_equal(mp.precision, m.precision)

    def test_damage_pattern_matches_covariance_oracle(self):
        rng = np.random.default_rng(127)
        _, g = damage_graph()
        for _ in range(5):
            prec = random_precision_on(g, rng)
            m = GaussianModel(np.zeros(24), prec)
            mp = marginal_precision(m, KEEP)
            cov = np.linalg.inv(prec)
            oracle = np.linalg.inv(cov[np.ix_(KEEP, KEEP)])
            rel = np.linalg.norm(mp.precision - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-8

    def test_result_is_positive_definite(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            n = int(rng.integers(3, 20))
            m = GaussianModel(np.zeros(n), random_spd(rng, n))
            a = varset(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            mp = marginal_precision(m, a)
            np.linalg.cholesky(mp.precision)
            GaussianModel(mp.mean, mp.precision)

    def test_asymmetry_accepted_at_the_models_scale_is_kept(self):
        # P's tolerance scales with its largest entry, 1e6; the retained
        # block's entries are at most 1, so a re-check at the block's scale
        # would refuse the 1e-9 asymmetry that P was accepted with
        prec = np.array([[1e6, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5 + 1e-9, 1.0]])
        m = GaussianModel(np.arange(3.0), prec.copy())
        mp = marginal_precision(m, (1, 2))
        assert np.array_equal(mp.precision, prec[1:, 1:])
        assert np.array_equal(mp.mean, [1.0, 2.0])
        assert np.array_equal(innovation_matrix(m, (1, 2)), np.zeros((2, 2)))
        assert gaussian_marginal_graph(m, (1, 2)).edges == {(1, 2)}
        with pytest.raises(InvalidInputError, match="not symmetric"):
            GaussianModel(mp.mean, mp.precision)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_the_kept_block_is_tested_for_finiteness(self, bad):
        # the Schur complement's entries are bounded by P's largest diagonal
        # entry, so only rounding at the edge of the float range could reach
        # this; the JSON writer must never see the value.  An unchecked model
        # whose retained block holds the value stands in for that rounding.
        prec = np.eye(3)
        prec[1, 0] = bad
        m = GaussianModel._of(np.zeros(3), prec)
        for call in (marginal_precision, innovation_matrix, gaussian_marginal_graph):
            with pytest.raises(InvalidInputError, match="non-finite"):
                call(m, (0, 1))
        assert m._innovation is None

    def test_empty_retained_set_rejected(self):
        m = GaussianModel(np.zeros(3), np.eye(3))
        with pytest.raises(InvalidInputError):
            marginal_precision(m, ())

    def test_ids_outside_the_model_are_refused(self):
        m = GaussianModel(np.zeros(3), np.eye(3))
        for call in (marginal_precision, innovation_matrix, gaussian_marginal_graph):
            with pytest.raises(InvalidInputError, match=r"ids \[-1, 3, 7\] outside the model"):
                call(m, (7, 0, 3, -1))
        assert m._innovation is None


class TestInnovationMatrix:
    def test_block_diagonal_has_no_innovations(self):
        prec = np.block([[2.0 * np.eye(2), np.zeros((2, 2))],
                         [np.zeros((2, 2)), 3.0 * np.eye(2) + 0.4 * (1 - np.eye(2))]])
        m = GaussianModel(np.zeros(4), prec)
        assert np.array_equal(innovation_matrix(m, (0, 1)), np.zeros((2, 2)))

    def test_damage_model_couples_x2_x8(self):
        m = damage_gaussian()
        gamma = innovation_matrix(m, KEEP)
        pos = {v: k for k, v in enumerate(KEEP)}
        assert abs(gamma[pos[X["X2"]], pos[X["X8"]]]) > 1e-9

    def test_three_chain_hand_schur(self):
        prec = np.array([[2.0, 0.8, 0.0],
                         [0.8, 1.5, -0.6],
                         [0.0, -0.6, 1.2]])
        m = GaussianModel(np.zeros(3), prec)
        gamma = innovation_matrix(m, (0, 2))
        expected = np.array([[0.8 * 0.8, 0.8 * -0.6],
                             [-0.6 * 0.8, 0.6 * 0.6]]) / 1.5
        assert np.max(np.abs(gamma - expected)) < 1e-14
        assert abs(np.linalg.det(gamma)) < 1e-14  # rank one

    def test_schur_identity(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            n = int(rng.integers(3, 25))
            m = GaussianModel(np.zeros(n), random_spd(rng, n))
            a = varset(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            lhs = m.precision[np.ix_(a, a)] - innovation_matrix(m, a)
            assert np.max(np.abs(lhs - marginal_precision(m, a).precision)) <= 1e-10


KINDS = ("band", "permuted band", "sparse", "permuted sparse", "dense", "forest")


@st.composite
def edge_precisions(draw, kinds=KINDS, floor=BLOCK_FLOOR):
    """A symmetric matrix whose smallest eigenvalue is +-1 % of its largest
    |eigenvalue|: a band of half-width 1-80 with holes over n = floor,
    2 floor or 3 floor + 1, a random sparse pattern over up to 5 floor ids,
    a dense one over up to 3 floor + 1, 1-3 copies of one band of
    half-width 1-4 with many holes over 2 floor + 1 to 3 floor + 1 members,
    or a forest over 3 floor to 5 floor ids: a ring of 3 to 2 floor ids
    with random trees hanging off it and others apart, so fewer edges than
    ids, and a 2-core that no leaf round removes; ``floor`` is BLOCK_FLOOR
    by default.  The "permuted" kinds shuffle the ids.
    Optionally a few entries of one triangle are moved by up to half the
    symmetry tolerance, so the two triangles' patterns differ."""
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind.endswith("band"):
        n = draw(st.sampled_from([floor, 2 * floor, 3 * floor + 1]))
        offset = np.subtract.outer(np.arange(n), np.arange(n))
        keep = (offset <= draw(st.integers(1, 80))) & (rng.random((n, n)) < 0.8)
    elif kind == "permuted sparse":
        m = draw(st.integers(2 * floor + 1, 3 * floor + 1))
        offset = np.subtract.outer(np.arange(m), np.arange(m))
        one = (offset <= draw(st.integers(1, 4))) & (rng.random((m, m)) < 0.6)
        keep = np.kron(np.eye(draw(st.integers(1, 3)), dtype=bool), one)
        n = len(keep)
    elif kind == "sparse":  # wide in member order from about 2.5 floor on
        n = draw(st.integers(1, 5 * floor))
        keep = rng.random((n, n)) < 2.0 / n
    elif kind == "forest":
        n, ring = draw(st.integers(3 * floor, 5 * floor)), draw(st.integers(3, 2 * floor))
        parent = (rng.random(n) * np.arange(n)).astype(int)  # a random smaller id
        child = np.flatnonzero(rng.random(n) < 0.9)
        child = child[child > ring]  # roots: the ids up to ring and a tenth of the others
        keep = np.zeros((n, n), dtype=bool)
        keep[child, parent[child]] = keep[np.arange(ring), np.arange(1, ring + 1) % ring] = True
        keep |= keep.T
    else:
        n = draw(st.integers(1, 3 * floor + 1))
        keep = np.ones((n, n), dtype=bool)
    low = np.tril(rng.normal(size=(n, n)) * keep, -1)
    prec = low + low.T + np.diag(rng.uniform(0.5, 2.0, size=n))
    if kind.startswith("permuted"):
        at = rng.permutation(n)
        prec = prec[np.ix_(at, at)]
    eig = np.linalg.eigvalsh(prec)
    prec += (draw(st.sampled_from([-0.01, 0.01])) * np.max(np.abs(eig)) - eig[0]) * np.eye(n)
    if n > 1 and draw(st.booleans()):
        bound = 0.5 * SYMMETRY_TOL * max(1.0, float(np.max(np.abs(prec))))
        for _ in range(draw(st.integers(1, 5))):
            i, j = rng.choice(n, size=2, replace=False)
            prec[i, j] = prec[j, i] + bound * rng.choice([-1.0, 1.0])
    return prec


def refusal(prec):
    """None if ``GaussianModel`` accepts ``prec``, else its message."""
    try:
        GaussianModel(np.zeros(len(prec)), prec)
    except InvalidInputError as exc:
        return str(exc)
    return None


def cholesky_refusal(prec):
    """What the constructor said when it factored all of P at once."""
    try:
        np.linalg.cholesky(prec)
    except np.linalg.LinAlgError:
        return "precision matrix is not positive definite"
    return None


def matrix_sizes(monkeypatch, name):
    """Record the order of every matrix ``np.linalg.<name>`` receives."""
    sizes = []
    call = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name,
                        lambda a, *rest: sizes.append(a.shape[-1]) or call(a, *rest))
    return sizes


class TestPositiveDefiniteProof:
    """The constructor proves P positive definite from its lower triangle.
    It eliminates leaves in rounds while a round removes BLOCK_FLOOR
    vertices or half of those left, then factors the rest in blocks along
    one order of their pattern, each component in member order or, if wide
    there, in reverse Cuthill-McKee order.  A block ends where the couplings
    of the blocks up to it end, so it couples only to the next one, and it is
    factored bordered by the next block's rows that it couples to, so no
    solve is made.  A P of at most BLOCK_FLOOR ids is one block, factored
    whole.  It decides as np.linalg.cholesky(P)."""

    @settings(max_examples=300, deadline=None)
    @given(edge_precisions())
    @example(np.zeros((0, 0)))
    @example(-np.ones((1, 1)))
    def test_accepts_exactly_what_cholesky_accepts(self, prec):
        assert refusal(prec) == cholesky_refusal(prec)

    def test_a_dense_model_is_factored_once(self, monkeypatch):
        n = 3 * BLOCK_FLOOR  # more non-zeros than any band of half-width BLOCK_FLOOR
        a = np.random.default_rng(3).normal(size=(n, n))
        prec = a @ a.T / n + np.eye(n)
        sizes = matrix_sizes(monkeypatch, "cholesky")
        GaussianModel(np.zeros(n), prec)
        assert sizes == [n]

    def test_a_model_of_one_block_is_factored_whole(self, monkeypatch):
        # a star of BLOCK_FLOOR ids, whose leaves one round would take
        prec = np.eye(BLOCK_FLOOR)
        prec[0, 1:] = prec[1:, 0] = 0.1
        sizes = matrix_sizes(monkeypatch, "cholesky")
        assert refusal(prec) is None
        assert sizes == [BLOCK_FLOOR]

    @pytest.mark.parametrize("width", [2, BLOCK_FLOOR + 8])
    @pytest.mark.parametrize("far", [0.4, 0.75])
    def test_a_banded_model_is_factored_block_by_block(self, width, far, monkeypatch):
        # a weak chain makes one component; the diagonal at ``width`` sets
        # the bandwidth and decides definiteness (PD at 0.4, not at 0.75)
        n = 4 * BLOCK_FLOOR
        offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        prec = np.eye(n) + 0.05 * (offset == 1) + far * (offset == width)
        expected = cholesky_refusal(prec)
        assert (expected is None) == (far == 0.4)
        sizes, solved = matrix_sizes(monkeypatch, "cholesky"), matrix_sizes(monkeypatch, "solve")
        assert refusal(prec) == expected
        block = max(width, BLOCK_FLOOR)
        assert max(sizes) <= 2 * block and solved == []  # a block and the rows it couples to
        if expected is None:
            # position p couples up to p + width, so after the first
            # BLOCK_FLOOR rows each cut lies max(width, BLOCK_FLOOR) past the
            # one before, up to n: at 32, 64, 96 and 128 for width 2, and at
            # 32, 72, 112 and 128 for width 40, blocks [32, 40, 40, 16]; each
            # is bordered by the rows of the next that it reaches: 2 for
            # width 2, and 33 (32 and 40-71), 40 and 16 for width 40
            assert sizes == ([BLOCK_FLOOR + 2] * 3 + [BLOCK_FLOOR] if width == 2 else
                             [BLOCK_FLOOR + 33, 2 * width, width + 16, 16])

    @pytest.mark.parametrize("far", [0.4, 0.75])
    def test_only_a_wide_component_is_reordered(self, far, monkeypatch):
        # the even ids form a chain with a second coupling BLOCK_FLOOR + 8
        # ranks apart: narrow in member order, though twice as wide in ids;
        # the odd ids form a shuffled path, wide in member order
        n, width = 6 * BLOCK_FLOOR, BLOCK_FLOOR + 8
        prec = np.eye(n)
        even, odd = np.arange(0, n, 2), np.random.default_rng(23).permutation(np.arange(1, n, 2))
        for d, value in ((1, 0.05), (width, far)):
            prec[even[d:], even[:-d]] = prec[even[:-d], even[d:]] = value
        prec[odd[1:], odd[:-1]] = prec[odd[:-1], odd[1:]] = 0.3
        reordered = []
        order = reverse_cuthill_mckee
        monkeypatch.setattr("margraph.gaussian.reverse_cuthill_mckee",
                            lambda *args: reordered.append(order(*args)) or reordered[-1])
        assert refusal(prec) == cholesky_refusal(prec)
        assert (cholesky_refusal(prec) is None) == (far == 0.4)
        assert len(reordered) == 1 and sorted(reordered[0].tolist()) == list(range(1, n, 2))

    @pytest.mark.parametrize("value", [0.5, 2.0])
    def test_a_coupling_to_the_row_after_a_cut_is_carried(self, value, monkeypatch):
        # pairs (s - 1, s) across each cut s of the blocks of a weak chain
        # whose ends close into triangles, so that no vertex is a leaf: PD at
        # 0.5, not at 2.0, though every block alone is diagonally dominant
        n = 4 * BLOCK_FLOOR
        offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        prec = np.eye(n) + 0.05 * (offset == 1)
        prec[2, 0] = prec[0, 2] = prec[n - 1, n - 3] = prec[n - 3, n - 1] = 0.05
        for s in range(BLOCK_FLOOR, n, BLOCK_FLOOR):
            prec[s, s - 1] = prec[s - 1, s] = value
        expected = cholesky_refusal(prec)
        assert (expected is None) == (value == 0.5)
        sizes, solved = matrix_sizes(monkeypatch, "cholesky"), matrix_sizes(monkeypatch, "solve")
        assert refusal(prec) == expected
        assert solved == []
        if expected is None:  # each block is bordered by the next one's first row
            assert sizes == [BLOCK_FLOOR + 1] * 3 + [BLOCK_FLOOR]

    @pytest.mark.parametrize("indefinite", [False, True])
    def test_blocks_with_no_coupling_across_a_cut_carry_nothing(self, indefinite, monkeypatch):
        # BLOCK_FLOOR independent 4-cycles (k, k + BLOCK_FLOOR, k + 2 BLOCK_FLOOR,
        # k + 3 BLOCK_FLOOR), which have no leaf: no block couples to the
        # next, so none is bordered
        n = 4 * BLOCK_FLOOR
        offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        prec = np.eye(n) + 0.3 * ((offset == n // 4) | (offset == 3 * n // 4))
        if indefinite:
            prec[n - 1, n // 2 - 1] = prec[n // 2 - 1, n - 1] = 2.0
        expected = cholesky_refusal(prec)
        assert (expected is None) != indefinite
        sizes, solved = matrix_sizes(monkeypatch, "cholesky"), matrix_sizes(monkeypatch, "solve")
        assert refusal(prec) == expected
        assert solved == []
        if not indefinite:
            assert sizes == [BLOCK_FLOOR] * 4

    @pytest.mark.parametrize("far", [0.4, 0.75])
    def test_a_shuffled_band_is_factored_in_its_reordered_blocks(self, far, monkeypatch):
        # a chain of half-width 2 (PD at 0.4, not at 0.75) under a random id
        # permutation: wide in member order, bandwidth 2 once reordered
        n = 4 * BLOCK_FLOOR
        offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        at = np.random.default_rng(17).permutation(n)
        prec = (np.eye(n) + 0.05 * (offset == 1) + far * (offset == 2))[np.ix_(at, at)]
        expected = cholesky_refusal(prec)
        assert (expected is None) == (far == 0.4)
        sizes = matrix_sizes(monkeypatch, "cholesky")
        assert refusal(prec) == expected
        assert max(sizes) <= BLOCK_FLOOR + 2  # a block and the 2 rows it couples to
        if expected is None:
            assert sizes == [BLOCK_FLOOR + 2] * 3 + [BLOCK_FLOOR]

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_only_the_lower_triangle_is_read(self, shuffled):
        # a band of half-width 2 over the first 2 BLOCK_FLOOR ids, each with a
        # leaf among the others: one leaf round, then two blocks; P's upper
        # triangle, 50 times its mirror image, would make it indefinite
        n = 4 * BLOCK_FLOOR
        offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        core = np.arange(n) < n // 2
        band = (offset == 1) | (offset == 2)
        prec = np.eye(n) + 0.2 * (band & core & core[:, None]) + 0.15 * (offset == n // 2)
        at = np.random.default_rng(5).permutation(n) if shuffled else np.arange(n)
        prec = prec[np.ix_(at, at)]
        prec += 49 * np.triu(prec, 1)
        np.linalg.cholesky(prec)
        pattern = _nonzeros(prec)  # what the constructor passes: both triangles
        rows, cols = divmod(pattern, n)
        assert (rows < cols).any() and (rows > cols).any()
        _prove_positive_definite(prec, pattern)

    @pytest.mark.parametrize("kind", ["permuted band", "sparse", "permuted sparse", "forest"])
    def test_every_shuffled_or_sparse_kind_reaches_the_reorder(self, kind, monkeypatch):
        # a dense pattern, and a band above half-width 2 BLOCK_FLOOR with 80 %
        # of its entries, are factored whole; narrower bands keep member order;
        # a forest's ring, once its trees are peeled, is wide from 2 BLOCK_FLOOR + 2
        calls = []
        order = reverse_cuthill_mckee
        monkeypatch.setattr("margraph.gaussian.reverse_cuthill_mckee",
                            lambda *args: calls.append(1) or order(*args))

        def reordered(prec):
            calls.clear()
            refusal(prec)
            return bool(calls)

        find(edge_precisions([kind]), reordered,
             settings=settings(database=None, derandomize=True, max_examples=100))

    def test_a_permuted_chain_peels_nothing(self, monkeypatch):
        # a round would take its two ends: fewer than BLOCK_FLOOR, and than half
        n = 4 * BLOCK_FLOOR
        offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        at = np.random.default_rng(29).permutation(n)
        prec = (np.eye(n) + 0.4 * (offset == 1))[np.ix_(at, at)]
        left = []
        graph = adjacency
        monkeypatch.setattr("margraph.gaussian.adjacency",
                            lambda m, *rest: left.append(m) or graph(m, *rest))
        assert refusal(prec) is None
        assert left == [n]

    @pytest.mark.parametrize("tree", [False, True])
    def test_the_identity_and_a_binary_tree_need_no_block_cholesky(self, tree, monkeypatch):
        # every round takes at least half of the vertices left: all of the
        # identity at once, or the leaves of the tree up to its root
        n = 1600
        prec = np.eye(n)
        if tree:
            child = np.arange(1, n)
            prec[child, (child - 1) // 2] = prec[(child - 1) // 2, child] = 0.3
        sizes = matrix_sizes(monkeypatch, "cholesky")
        assert refusal(prec) is None
        assert sizes == []

    @pytest.mark.parametrize("coupling", [0.05, 0.2])
    def test_a_star_is_decided_by_the_peeling(self, coupling, monkeypatch):
        # 100 leaves go in one round, and the centre alone in the next: its
        # Schur diagonal is 1 - 100 coupling^2, 0.75 or -3
        prec = np.eye(101)
        prec[0, 1:] = prec[1:, 0] = coupling
        expected = cholesky_refusal(prec)
        assert (expected is None) == (coupling == 0.05)
        sizes = matrix_sizes(monkeypatch, "cholesky")
        assert refusal(prec) == expected
        assert sizes == []


class TestKeptPattern:
    """A sparse model keeps the list of P's off-diagonal non-zeros that its
    constructor found; the symmetry test, the innovation matrix and
    ``pattern_graph`` read that list instead of scanning P again."""

    @settings(max_examples=100, deadline=None)
    @given(edge_precisions(), st.data())
    def test_the_listed_asymmetry_is_the_strip_scans(self, prec, data):
        # the constructor takes P's asymmetry from its non-zeros' list; a
        # pair zeroed in one triangle is listed once, by the other
        n = len(prec)
        for _ in range(data.draw(st.integers(0, 3)) if n > 1 else 0):
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            prec[i, j] = data.draw(st.sampled_from([0.0, -0.0]))
        assert _asymmetry(prec, _nonzeros(prec)) == _asymmetry(prec)

    def test_a_pair_zero_in_one_triangle_is_found(self):
        prec = 2.0 * np.eye(STRIP_ROWS + 3)
        prec[STRIP_ROWS + 1, 2] = 1e-3  # prec[2, STRIP_ROWS + 1] stays 0
        assert _asymmetry(prec, _nonzeros(prec)) == _asymmetry(prec) == 1e-3

    def test_the_default_tolerance_counts_the_diagonal(self):
        # P's largest |entry| is on its diagonal, and 1e-4 is below 1e-9 x 1e6
        prec = np.diag([1e6, 1.0, 1.0])
        prec[1, 2] = prec[2, 1] = 1e-4
        m = GaussianModel(np.zeros(3), prec)
        assert not pattern_graph(m).edges
        assert pattern_graph(m, 0.0).edges == {(1, 2)}

    def test_the_kept_pattern_is_read_and_not_found_again(self, monkeypatch):
        n = 4 * BLOCK_FLOOR
        offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        prec = np.eye(n) + 0.2 * (offset == 1) + 0.1 * (offset == 3)
        m = GaussianModel(np.zeros(n), prec)
        assert np.array_equal(m._pattern, np.flatnonzero((prec != 0) & (offset != 0)))

        def scan(*args):
            raise AssertionError("P scanned again")

        monkeypatch.setattr("margraph.gaussian._nonzeros", scan)
        a = list(range(0, n, 4))
        assert pattern_graph(m, 0.0).edges == edges_by_loops(prec, range(n), 0.0)
        assert innovation_matrix(m, a).tobytes() == innovation_by_dense_scan(m, a).tobytes()
        block = prec[np.ix_(a, a)] - innovation_by_dense_scan(m, a)
        assert marginal_precision(m, a).precision.tobytes() == block.tobytes()


@st.composite
def sparse_graphs(draw):
    """A graph on 1-60 vertices with 0.5-3 edges per vertex on average, so
    often disconnected, and about two thirds of its components."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = np.nonzero(np.tril(rng.random((n, n)) < draw(st.floats(0.5, 3.0)) / n, -1))
    g = Graph.from_edges(range(n), zip(rows.tolist(), cols.tolist()))
    return g, [c for c in connectivity_components(g) if rng.random() < 0.7]


class TestReverseCuthillMcKee:
    @settings(max_examples=200, deadline=None)
    @given(sparse_graphs())
    def test_matches_a_queue_search(self, case):
        g, chosen = case
        adj = adjacency(len(g.vertices), *np.array(g.edge_list, dtype=np.intp).reshape(-1, 2).T)
        roots = np.array(sorted(min(c) for c in chosen), dtype=np.intp)
        order = reverse_cuthill_mckee(adj, component_labels(adj), roots).tolist()
        expected, levels = reverse_cuthill_mckee_by_queue(g, chosen)
        assert order == expected
        for comp, widths in zip(sorted(chosen, key=min), levels):
            part, order = order[:len(comp)], order[len(comp):]
            assert sorted(part) == list(comp)
            # an edge joins one level or two adjacent ones, which bounds the
            # bandwidth (the member order's may be narrower on a few graphs)
            at = {x: k for k, x in enumerate(part)}
            band = max((abs(at[a] - at[b]) for a, b in g.edges if a in at), default=0)
            assert band <= max(map(sum, zip(widths, widths[1:] + [0]))) - 1
        assert order == []


def lower_triangular(rng, n, batch=()):
    """Well-conditioned lower-triangular matrices: unit-scale diagonal and
    small off-diagonal entries."""
    low = np.tril(rng.normal(size=(*batch, n, n)), -1) / np.sqrt(n)
    return low + np.eye(n) * rng.uniform(1.0, 2.0, size=(*batch, 1, n))


class TestBlockedSolve:
    @pytest.mark.parametrize("n", [SOLVE_LEAF - 1, SOLVE_LEAF, SOLVE_LEAF + 1, 2 * SOLVE_LEAF + 1])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_lu_solve(self, n, batch, monkeypatch):
        rng = np.random.default_rng(n)
        chol = lower_triangular(rng, n, batch)
        b = rng.normal(size=(*batch, n, 7))
        expected = np.linalg.solve(chol, b)
        sizes = matrix_sizes(monkeypatch, "solve")
        y = _solve_lower(chol, b.copy())
        assert max(sizes) <= SOLVE_LEAF
        if n <= SOLVE_LEAF:
            assert np.array_equal(y, expected)  # one leaf: the plain solve, bit for bit
        else:
            assert len(sizes) > 1
            assert np.max(np.abs(y - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_banded_chain_longer_than_two_leaves(self, monkeypatch):
        # bandwidth-2 band keeping the even ids: the odd ids form one
        # eliminated chain of 2 * SOLVE_LEAF + 5 variables, coupled to every
        # retained variable
        n = 2 * (2 * SOLVE_LEAF + 5)
        rng = np.random.default_rng(151)
        prec = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, min(n, i + 3)):
                prec[i, j] = prec[j, i] = rng.uniform(0.1, 0.5) * rng.choice([-1.0, 1.0])
        np.fill_diagonal(prec, np.abs(prec).sum(axis=1) + rng.uniform(0.5, 1.5, size=n))
        a, z = list(range(0, n, 2)), list(range(1, n, 2))
        schur = prec[np.ix_(a, z)] @ np.linalg.inv(prec[np.ix_(z, z)]) @ prec[np.ix_(z, a)]
        m = GaussianModel(np.zeros(n), prec)
        sizes = matrix_sizes(monkeypatch, "solve")
        gamma = innovation_matrix(m, a)
        assert sizes and max(sizes) <= SOLVE_LEAF
        scale = np.max(np.abs(schur))
        assert np.max(np.abs(gamma - schur)) <= 1e-12 * scale
        block = marginal_precision(m, a).precision
        assert np.max(np.abs(block - (prec[np.ix_(a, a)] - schur))) <= 1e-12 * scale


class TestPairwiseInnovation:
    def test_damage_x2_x8_product_form(self):
        # the (X2, X8) innovation is rho[X5, X7] * P[X2, X5] * P[X7, X8]
        m = damage_gaussian()
        p = m.precision
        z = varset(set(range(24)) - set(KEEP))
        rho = np.linalg.inv(p[np.ix_(z, z)])
        zpos = {v: k for k, v in enumerate(z)}
        expected = rho[zpos[X["X5"]], zpos[X["X7"]]] * p[X["X2"], X["X5"]] * p[X["X7"], X["X8"]]
        got = pairwise_innovation(m, KEEP, X["X2"], X["X8"])
        assert got == pytest.approx(expected, abs=1e-12)
        assert abs(got) > 1e-9

    def test_no_eliminated_neighbors_gives_zero(self):
        prec = np.array([[2.0, 0.0, 0.0],
                         [0.0, 1.5, 0.7],
                         [0.0, 0.7, 1.2]])
        m = GaussianModel(np.zeros(3), prec)
        assert pairwise_innovation(m, (0, 1), 0, 1) == 0.0

    def test_matches_innovation_matrix(self):
        rng = np.random.default_rng(139)
        for _ in range(10):
            n = int(rng.integers(4, 16))
            m = GaussianModel(np.zeros(n), random_spd(rng, n))
            a = varset(rng.choice(n, size=int(rng.integers(2, n)), replace=False).tolist())
            gamma = innovation_matrix(m, a)
            pos = {v: k for k, v in enumerate(a)}
            i, j = a[0], a[-1]
            assert pairwise_innovation(m, a, i, j) == pytest.approx(
                gamma[pos[i], pos[j]], abs=1e-10)

    def test_diagonal_rejected(self):
        m = GaussianModel(np.zeros(3), np.eye(3))
        with pytest.raises(InvalidInputError):
            pairwise_innovation(m, (0, 1), 0, 0)


class TestGaussianMarginalGraph:
    def test_damage_generic_edges(self):
        m = damage_gaussian()
        _, g = damage_graph()
        got = gaussian_marginal_graph(m, KEEP)
        expected = set(subgraph(g, KEEP).edges) | {(X["X2"], X["X8"])}
        assert set(got.edges) == expected
        assert (X["X2"], X["X4"]) in got.edges
        assert (X["X4"], X["X8"]) in got.edges

    def test_tuned_entry_drops_edge_graph_operator_keeps_it(self):
        m = damage_gaussian_tuned()
        got = gaussian_marginal_graph(m, KEEP)
        assert (X["X2"], X["X4"]) not in got.edges
        graph_route = marginalize_graph(pattern_graph(m), KEEP)
        assert (X["X2"], X["X4"]) in graph_route.edges

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_a_non_finite_or_negative_tolerance_is_refused(self, tol):
        # as the CLI's --tolerance is; a negative one made every pair an edge
        m = damage_gaussian()
        with pytest.raises(InvalidInputError, match="finite number >= 0"):
            pattern_graph(m, tol)
        with pytest.raises(InvalidInputError, match="finite number >= 0"):
            gaussian_marginal_graph(m, KEEP, tol)

    def test_diagonal_precision_gives_edgeless_graph(self):
        m = GaussianModel(np.zeros(4), np.diag([1.0, 2.0, 3.0, 4.0]))
        assert not gaussian_marginal_graph(m, (0, 2)).edges

    def test_contained_in_graph_operator_output(self):
        rng = np.random.default_rng(149)
        for _ in range(10):
            n = int(rng.integers(3, 18))
            g = random_graph(rng, n, 0.4)
            m = GaussianModel(np.zeros(n), random_precision_on(g, rng))
            a = varset(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            got = gaussian_marginal_graph(m, a)
            assert got.edges <= marginalize_graph(pattern_graph(m), a).edges


@st.composite
def split_models(draw, quantized: bool = False):
    """A random SPD model and a non-empty retained set.

    Either diagonally dominant on a random sparsity pattern or a dense
    Gram matrix; ``quantized`` draws off-diagonals from multiples of 0.25,
    so entries tie exactly with the explicit tolerances below.
    """
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if quantized or draw(st.booleans()):
        g = random_graph(rng, n, draw(st.floats(0.0, 1.0)))
        prec = random_precision_on(g, rng)
        if quantized:
            prec = np.round(prec * 4.0) / 4.0
            np.fill_diagonal(prec, 0.0)
            np.fill_diagonal(prec, np.abs(prec).sum(axis=1) + 0.5)
    else:
        b = rng.normal(size=(n, n))
        prec = b @ b.T / n + np.eye(n)
    keep = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    return GaussianModel(np.zeros(n), prec), varset(keep)


@st.composite
def block_models(draw):
    """An SPD model whose eliminated set splits into chain-connected
    components: at least one coupled to every retained variable, one to a
    non-empty strict subset and one to none.  Ids are shuffled, so the
    components interleave.  Returns the model, the retained set and the
    boundary of every component."""
    r = draw(st.integers(2, 6))
    kinds = ["all", "some", "none"] + draw(
        st.lists(st.sampled_from(["all", "some", "none"]), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = [int(rng.integers(1, 4)) for _ in kinds]  # small sizes make equal shapes
    n = r + sum(sizes)
    new_id = rng.permutation(n)
    prec = np.zeros((n, n))

    def couple(i, j):
        prec[new_id[i], new_id[j]] = prec[new_id[j], new_id[i]] = \
            rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])

    for i in range(r):
        for j in range(i + 1, r):
            if rng.random() < 0.4:
                couple(i, j)
    boundaries = []
    start = r
    for kind, size in zip(kinds, sizes):
        members = range(start, start + size)
        for i in members[1:]:
            couple(i - 1, i)
        if size == 3 and rng.random() < 0.5:
            couple(members[0], members[2])
        if kind == "all":
            d = list(range(r))
        elif kind == "some":
            d = rng.choice(r, size=int(rng.integers(1, r)), replace=False).tolist()
        else:
            d = []
        for j in d:
            couple(int(rng.choice(members)), j)
        boundaries.append(varset(new_id[d].tolist()))
        start += size
    np.fill_diagonal(prec, np.abs(prec).sum(axis=1) + rng.uniform(0.5, 1.5, size=n))
    return GaussianModel(np.zeros(n), prec), varset(new_id[:r].tolist()), boundaries


@st.composite
def asymmetric_models(draw):
    """A ``block_models()`` model scaled by a power of ten, with one
    off-diagonal pair made asymmetric by the largest amount the constructor
    accepts, SYMMETRY_TOL * max(1, max|P|); the pair may join two retained,
    two eliminated or one of each.  Returns the model and the retained set."""
    m, a, _ = draw(block_models())
    prec = m.precision * 10.0 ** draw(st.integers(-3, 8))
    n = m.n
    i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
    bound = SYMMETRY_TOL * max(1.0, float(np.max(np.abs(prec))))
    # the largest value whose difference from prec[i, j] rounds to at most bound
    value = prec[i, j] + bound
    while abs(value - prec[i, j]) > bound:
        value = np.nextafter(value, prec[i, j])
    prec[j, i] = value
    return GaussianModel(np.arange(float(n)), prec), a


class TestAgainstReferences:
    @settings(max_examples=80, deadline=None)
    @given(split_models())
    def test_innovation_matrix_matches_neighbour_sum(self, split):
        m, a = split
        gamma = innovation_matrix(m, a)
        assert np.array_equal(gamma, gamma.T)
        assert np.max(np.abs(gamma - innovation_by_neighbour_sum(m, a))) <= 1e-10

    @settings(max_examples=80, deadline=None)
    @given(split_models(), block_models().map(lambda case: case[:2]), asymmetric_models())
    def test_innovation_matrix_is_the_dense_scans_bit_for_bit(self, split, blocks, asymmetric):
        for m, a in (split, blocks, asymmetric):
            assert innovation_matrix(m, a).tobytes() == innovation_by_dense_scan(m, a).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(edge_precisions(("band", "permuted band", "sparse", "dense"), floor=SOLVE_LEAF),
           st.data())
    def test_chains_longer_than_a_leaf_match_the_dense_scan_bit_for_bit(self, prec, data):
        # a few retained ids, so an eliminated component outgrows SOLVE_LEAF
        # and its solve recurses; a dense draw keeps no pattern
        assume(refusal(prec) is None)
        n = len(prec)
        a = varset(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4)))
        z = [v for v in range(n) if v not in a]
        label = component_labels(adjacency(len(z), *np.nonzero(prec[np.ix_(z, z)])))
        assume(np.bincount(label, minlength=1).max() > SOLVE_LEAF)
        m = GaussianModel(np.zeros(n), prec)
        assert innovation_matrix(m, a).tobytes() == innovation_by_dense_scan(m, a).tobytes()
        block = prec[np.ix_(a, a)] - innovation_by_dense_scan(m, a)
        assert marginal_precision(m, a).precision.tobytes() == block.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(
        st.tuples(split_models(quantized=True), st.sampled_from([None, 0.0, 0.25, 0.5])),
        # one triangle's entry of the asymmetric pair may be 0: the upper one is read
        st.tuples(asymmetric_models(), st.just(0.0))))
    def test_pattern_graph_matches_double_loop(self, case):
        (m, _), tol = case
        expected = edges_by_loops(m.precision, range(m.n), _scaled_tol(m.precision, tol))
        assert pattern_graph(m, tol).edges == expected

    @pytest.mark.parametrize("tol", [None, 0.0, 0.25])
    def test_pattern_graph_of_models_that_keep_no_pattern(self, tol):
        # 80 % of the entries are non-zero, so P is factored whole and its
        # pattern is found again on each call, as it is for a marginal
        n = 3 * BLOCK_FLOOR
        rng = np.random.default_rng(19)
        values = np.round(rng.normal(size=(n, n)) * 4.0) / 4.0  # ties with tol 0.25
        low = np.tril(values * (rng.random((n, n)) < 0.8), -1)
        prec = low + low.T
        np.fill_diagonal(prec, np.abs(prec).sum(axis=1) + 0.5)
        m = GaussianModel(np.zeros(n), prec)
        marginal = marginal_precision(m, range(0, n, 3))
        assert m._pattern is None and marginal._pattern is None
        for model in (m, marginal):
            p = model.precision
            assert pattern_graph(model, tol).edges == edges_by_loops(
                p, range(model.n), _scaled_tol(p, tol))

    @settings(max_examples=80, deadline=None)
    @given(split_models(quantized=True), st.sampled_from([None, 0.0, 0.25, 0.5]))
    def test_marginal_graph_matches_double_loop(self, split, tol):
        m, a = split
        mp = marginal_precision(m, a).precision
        got = gaussian_marginal_graph(m, a, tol)
        assert got.vertices == a
        assert got.edges == edges_by_loops(mp, a, _scaled_tol(mp, tol))


class TestComponentWiseInnovation:
    @settings(max_examples=80, deadline=None)
    @given(block_models())
    def test_sum_of_boundary_terms_matches_neighbour_sum(self, case):
        m, a, boundaries = case
        gamma = innovation_matrix(m, a)
        assert np.array_equal(gamma, gamma.T)
        assert np.max(np.abs(gamma - innovation_by_neighbour_sum(m, a))) <= 1e-10
        # each component's term lives on its boundary's entries only
        support = np.zeros(gamma.shape, dtype=bool)
        for d in boundaries:
            at = [a.index(j) for j in d]
            support[np.ix_(at, at)] = True
        assert np.all(gamma[~support] == 0.0)
        assert np.all(np.diag(gamma)[np.diag(support)] > 0.0)

    @settings(max_examples=80, deadline=None)
    @given(block_models(), st.sampled_from([None, 0.0, 0.25]))
    def test_marginal_graph_matches_double_loop(self, case, tol):
        m, a, _ = case
        mp = marginal_precision(m, a).precision
        got = gaussian_marginal_graph(m, a, tol)
        assert got.edges == edges_by_loops(mp, a, _scaled_tol(mp, tol))


class TestUncheckedMarginal:
    """``marginal_precision`` builds its result without the constructor's
    symmetry scan and factorization."""

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(block_models().map(lambda case: case[:2]), asymmetric_models()))
    def test_result_is_what_the_constructor_would_build(self, case):
        m, a = case
        mp = marginal_precision(m, a)
        block = m.precision[np.ix_(a, a)] - innovation_matrix(m, a)
        assert mp.precision.tobytes() == block.tobytes()
        assert mp.mean.tobytes() == m.mean[list(a)].tobytes()
        assert not mp.mean.flags.writeable and not mp.precision.flags.writeable
        np.linalg.cholesky(mp.precision)
        symmetric = np.array_equal(m.precision, m.precision.T)
        try:
            checked = GaussianModel(m.mean[list(a)], block)
        except InvalidInputError:
            assert not symmetric  # only P's asymmetry, rescaled, can be refused
            return
        assert checked.precision.tobytes() == mp.precision.tobytes()
        assert checked.mean.tobytes() == mp.mean.tobytes()


class TestFactorCache:
    def test_repeated_calls_give_equal_arrays(self):
        m = damage_gaussian()
        first = innovation_matrix(m, KEEP), marginal_precision(m, KEEP).precision
        again = innovation_matrix(m, KEEP), marginal_precision(m, KEEP).precision
        assert np.array_equal(first[0], again[0])
        assert np.array_equal(first[1], again[1])

    def test_a_different_retained_set_recomputes(self):
        m = damage_gaussian()
        other = KEEP[:-1]
        gamma = innovation_matrix(m, KEEP)
        assert np.array_equal(innovation_matrix(m, other),
                              innovation_matrix(damage_gaussian(), other))
        assert np.array_equal(innovation_matrix(m, KEEP), gamma)

    def test_the_marginal_precision_is_the_kept_block(self):
        m = damage_gaussian()
        first, again = marginal_precision(m, KEEP), marginal_precision(m, KEEP)
        assert first.precision is again.precision
        assert not first.precision.flags.writeable

    def test_mutating_a_returned_matrix_leaves_the_cache_alone(self):
        m = damage_gaussian()
        gamma = innovation_matrix(m, KEEP)
        expected = gamma.copy()
        gamma[:] = 99.0
        assert np.array_equal(innovation_matrix(m, KEEP), expected)
        fresh = marginal_precision(damage_gaussian(), KEEP).precision
        assert np.array_equal(marginal_precision(m, KEEP).precision, fresh)

    def test_the_kept_block_is_tested_once(self, monkeypatch):
        m = damage_gaussian()
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda *args: calls.append(1) or isfinite(*args))
        marginal_precision(m, KEEP)
        assert len(calls) == 1
        marginal_precision(m, KEEP)
        innovation_matrix(m, KEEP)
        gaussian_marginal_graph(m, KEEP)
        assert len(calls) == 1

    def test_one_factorization_per_retained_set(self, monkeypatch):
        # One solve per stack of eliminated components that share a size and
        # a boundary width, counting only components with a non-empty
        # boundary; the calls after the first reuse the cached matrix.
        m = damage_gaussian()
        z = varset(set(range(m.n)) - set(KEEP))
        pattern = pattern_graph(m, 0.0)
        shapes = {(len(tau), len(d)) for tau in connectivity_components(subgraph(pattern, z))
                  for d in [boundary(pattern, tau)] if d}
        assert shapes == {(8, 3), (1, 1)}
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
        marginal_precision(m, KEEP)
        assert len(calls) == len(shapes)
        innovation_matrix(m, KEEP)
        gaussian_marginal_graph(m, KEEP)
        assert len(calls) == len(shapes)

    def test_components_of_equal_shape_share_one_solve(self, monkeypatch):
        # chains X0-X1-X2, X3-X4-X5 and X6-X7-X8-X9 keeping X0, X3, X6, X9:
        # the eliminated pairs (X1, X2) and (X4, X5) each touch one retained
        # variable, (X7, X8) touches two, so two stacks need a solve
        prec = np.eye(10) * 2.0
        for i, j in [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8), (8, 9)]:
            prec[i, j] = prec[j, i] = 0.5 if i < 3 else 0.75
        m = GaussianModel(np.zeros(10), prec)
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
        gamma = innovation_matrix(m, (0, 3, 6, 9))
        assert len(calls) == 2
        assert np.max(np.abs(gamma - innovation_by_neighbour_sum(m, (0, 3, 6, 9)))) <= 1e-12
        assert gamma[0, 1] == gamma[0, 2] == gamma[1, 2] == 0.0
        assert gamma[2, 3] != 0.0


def _run_fresh(code):
    """Last stdout line of a fresh interpreter that runs ``code`` from the
    repository root, decoded as JSON."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _modules_after(code):
    """The margraph, numpy and scipy modules loaded after ``code`` runs."""
    return set(_run_fresh(
        code + "\nimport json, sys\n"
        "print(json.dumps([k for k in sys.modules "
        "if k.split('.')[0] in ('margraph', 'numpy', 'scipy')]))"))


def test_cli_import_loads_no_scipy():
    assert not {k for k in _modules_after("import margraph.cli") if k.startswith("scipy")}


def test_package_import_loads_no_module():
    assert _modules_after("import margraph") == {"margraph"}


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_marginalize_graph_loads_no_numpy(fmt):
    loaded = _modules_after(
        "import margraph.cli\n"
        "margraph.cli.main(['marginalize-graph', 'fixtures/two_chains_graph.json',"
        f" '--keep', 'V1,V3,V5', '--format', '{fmt}'])")
    assert "margraph.graph_marginal" in loaded
    assert not {k for k in loaded if k.split(".")[0] == "numpy"}


def test_marginalize_gaussian_loads_only_its_route():
    loaded = _modules_after(
        "import margraph.cli\n"
        "margraph.cli.main(['marginalize-gaussian', 'fixtures/damage_gaussian.json',"
        " '--keep', 'X1,X2,X8'])")
    assert "margraph.gaussian" in loaded
    assert not loaded & {"margraph.potentials", "margraph.hypergraph_marginal",
                         "margraph.oracle"}


def test_marginalize_gaussian_on_a_forest_loads_no_numpy_ma(tmp_path):
    # a binary tree with a triangle at its root: the leaf rounds leave the
    # triangle and one more id to the blocks; np.unique would import numpy.ma,
    # about 6 ms of every such process
    n = 4 * BLOCK_FLOOR + 1
    prec = np.eye(n)
    child = np.arange(1, n)
    prec[child, (child - 1) // 2] = prec[(child - 1) // 2, child] = 0.3
    prec[1, 2] = prec[2, 1] = 0.3
    path = tmp_path / "forest.json"
    path.write_text(json.dumps({
        "format_version": 1, "variables": [{"label": f"X{k}"} for k in range(n)],
        "gaussian": {"mean": [0.0] * n, "precision": prec.tolist()}}))
    loaded = _modules_after(
        "import margraph.cli\n"
        f"assert margraph.cli.main(['marginalize-gaussian', {str(path)!r},"
        " '--keep', 'X0,X5']) == 0")
    assert "margraph.gaussian" in loaded
    assert "numpy.ma" not in loaded


def test_marginalize_hypergraph_emit_potential_loads_no_numpy_ma():
    # the shared component pass dedupes the plan's boundary pairs by a sort, not np.unique
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "chain_potential.json")
    loaded = _modules_after(
        "import margraph.cli\n"
        f"assert margraph.cli.main(['marginalize-hypergraph', {path!r},"
        " '--keep', 'V1,V3,V5', '--emit-potential']) == 0")
    assert "margraph.hypergraph_marginal" in loaded
    assert "numpy.ma" not in loaded


def test_lazy_exports_are_the_module_objects():
    # a fresh process, so every name goes through the package's __getattr__
    bad = _run_fresh(
        "import importlib, inspect, json, margraph\n"
        "bad = []\n"
        "for module, names in margraph._EXPORTS.items():\n"
        "    owner = importlib.import_module('margraph.' + module)\n"
        "    for name in names:\n"
        "        value = getattr(margraph, name)\n"
        "        defined = inspect.isfunction(value) or type(value) is type\n"
        "        if value is not getattr(owner, name) or (\n"
        "                defined and value.__module__ != owner.__name__):\n"
        "            bad.append(name)\n"
        "bad += sorted(set(margraph.__all__) - set(dir(margraph)))\n"
        "print(json.dumps(bad))")
    assert bad == []
    import margraph

    assert margraph.__all__ == sorted(n for names in margraph._EXPORTS.values() for n in names)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        margraph.no_such_name  # noqa: B018
    assert not hasattr(margraph, "_scaled_tol")
