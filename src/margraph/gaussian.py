"""Gaussian instantiation: marginalization as a Schur complement of the
precision matrix, and the innovation matrix that explains which edges the
marginal keeps, gains, or can lose.

For a Gaussian model the normalized pairwise interactions are exactly the
off-diagonal precision entries, so the marginal precision splits into the
retained block (the restricted potential) minus the innovation matrix.
The innovation matrix is a sum over the connectivity components of the
eliminated set (components of the non-zero pattern of its block): a
component tau with boundary d = {retained j : P[tau, j] != 0} contributes
P_d,tau P_tau,tau^-1 P_tau,d on the d x d entries only.  This is the
Gaussian analogue of innovations on the subsets of each boundary.  Each
term is computed through the Cholesky factor L of P_tau,tau, not an explicit
inverse.  Components of at most SOLVE_LEAF ids and equal boundary width are one
stack: Y^T Y with Y = L^-1 P_tau,d from ``np.linalg.solve``, and so are wider ones
as dense as the constructor's rule for factoring P whole.  Other wide ones take their
block-bidiagonal L from the proof's block Cholesky below.  A forward and a backward
block sweep, each L_tt^-1 applied as one explicit inverse, give X = P_tau,tau^-1 P_tau,d
(a boundary column joins the forward sweep at the first block coupled to it); P_d,tau X
is summed in the backward sweep from each block's rows of P_tau,d, and its lower
triangle mirrored.

The constructor proves P positive definite from its lower triangle, as
``np.linalg.cholesky`` would.  It first eliminates leaves in rounds: a vertex of
degree <= 1 makes no fill (Rose, Tarjan & Lueker 1976), so p_vv must be positive and
p_uv^2 / p_vv leaves its neighbour's diagonal; of two joined leaves one goes a round.
The rounds stop at the first that takes fewer than BLOCK_FLOOR vertices and fewer
than half of those left: chains and bands skip them, binary trees go whole.  The rest
(460-500 of a random sparse n = 1600) is factored by one block Cholesky along one
order: the components of its pattern, each in member order or, if its bandwidth
there is above 2 BLOCK_FLOOR, in reverse Cuthill-McKee order (Cuthill & McKee 1969;
George & Liu 1981), which takes those ~480 from bandwidth ~450 to ~70.  A block ends
where the couplings of the rows up to it end, as in envelope methods, so it couples
only to the next.  Bordered by the rows R of the next that it couples to, it is built
from the diagonal and the lower triangle's list, not gathered from P; the trailing
factor L22 of [[A, C^T], [C, P_RR]] gives R's Schur block L22 L22^T without a solve.
P is factored whole at n <= BLOCK_FLOOR (one block) and from n (2 BLOCK_FLOOR + 1)
non-zeros on.  Below that count the model keeps the pattern it found, which the
finiteness and symmetry tests, Γ and ``pattern_graph`` read instead of P (sparse direct
solvers too find the symbolic structure once).  A marginal model skips those tests and
this proof, as a Schur complement of the proved-SPD P is SPD; ``_gamma`` tests finiteness.
"""

from __future__ import annotations

import math

import numpy as np

from .components import adjacency, component_labels, eliminated_components, reverse_cuthill_mckee
from .errors import InvalidInputError
from .graphs import Graph, VarSet, _require_subset, _require_tolerance

SYMMETRY_TOL = 1e-12
# Widest eliminated component that always takes the stacked kernel (every golden's).
SOLVE_LEAF = 128
# Rows per strip of the constructor's symmetry scan, and of the mirror of a wide
# component's Γ term.  At n = 1600 strips of 32 to 128 rows take 5.3-6.5 ms against
# 22 ms for max|P - P^T|; an 800 x 800 mirror 1.4 ms against 4.2 ms for tril + tril.T.
STRIP_ROWS = 64
# Least rows per block of the constructor's block Cholesky, and of a leaf round that
# takes less than half of what is left.  With bordered blocks 16-64 read level on
# the random sparse n = 800-1600, and 64 about 20 % faster than 32 on banded ones.
# Only components wider than twice this are reordered: chains with a chord 40-80
# ranks away proved 0.9-3.3 ms faster at n = 128-1600 in member order.
BLOCK_FLOOR = 32


class GaussianModel:
    """Mean vector plus symmetric positive-definite precision matrix."""

    __slots__ = ("mean", "precision", "_innovation", "_pattern")

    def __init__(self, mean, precision):
        mean = np.asarray(mean, dtype=float)
        prec = np.asarray(precision, dtype=float)
        if mean.ndim != 1:
            raise InvalidInputError("mean must be a vector")
        n = mean.shape[0]
        if prec.shape != (n, n):
            raise InvalidInputError(
                f"precision must be {n}x{n} to match the mean, got {prec.shape}")
        pattern = _nonzeros(prec, n * (2 * BLOCK_FLOOR + 1))  # None: denser than any band
        # the listed values or the diagonal hold NaN and the infinities, and NaN propagates
        parts = (prec,) if pattern is None else (np.take(prec, pattern), prec.diagonal())
        largest = float(np.max([(np.max(x, initial=0.0), -np.min(x, initial=0.0)) for x in parts]))
        if not np.all(np.isfinite(mean)) or not math.isfinite(largest):
            raise InvalidInputError("non-finite entries in the Gaussian model")
        if _asymmetry(prec, pattern) > SYMMETRY_TOL * max(1.0, largest):
            raise InvalidInputError("precision matrix is not symmetric")
        try:
            if pattern is None or n <= BLOCK_FLOOR:  # denser than any band, or one block
                np.linalg.cholesky(prec)
            else:
                _prove_positive_definite(prec, pattern)
        except np.linalg.LinAlgError:
            raise InvalidInputError("precision matrix is not positive definite") from None
        mean.setflags(write=False)
        prec.setflags(write=False)
        self.mean, self.precision, self._pattern = mean, prec, pattern
        # (retained set, innovation matrix, marginal block) of the last split, read-only
        self._innovation = None

    @classmethod
    def _of(cls, mean: np.ndarray, precision: np.ndarray) -> "GaussianModel":
        """A model derived from a checked one, whose caller has tested finiteness."""
        mean.setflags(write=False)
        precision.setflags(write=False)
        m = object.__new__(cls)
        m.mean, m.precision, m._innovation, m._pattern = mean, precision, None, None
        return m

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    def __repr__(self) -> str:
        return f"GaussianModel(n={self.n})"


def _nonzeros(prec: np.ndarray, limit: float = math.inf) -> np.ndarray | None:
    """Row-major flat indices of a square matrix's off-diagonal non-zeros, both
    triangles; None once ``limit`` entries, the diagonal's included, are non-zero."""
    n = prec.shape[0]
    mask, count = np.empty((n, n), dtype=bool), 0
    for s in range(0, n, STRIP_ROWS):
        e = s + STRIP_ROWS
        count += np.count_nonzero(np.not_equal(prec[s:e], 0.0, out=mask[s:e]))
        if count >= limit:
            return None
    mask.flat[::n + 1] = False
    return np.flatnonzero(mask)


def _pattern(m: GaussianModel) -> np.ndarray:
    """P's ``_nonzeros``: the constructor's, else (dense P, or a marginal) found anew."""
    return _nonzeros(m.precision) if m._pattern is None else m._pattern


def _asymmetry(prec: np.ndarray, pattern: np.ndarray | None = None) -> float:
    """Largest |prec[i, j] - prec[j, i]| of a finite square matrix, over its
    ``pattern`` (a pair zero in both triangles adds 0) or else by strips: each
    strip of rows against the same strip of columns, so P^T is never built."""
    if pattern is not None:
        rows, cols = divmod(pattern, prec.shape[0])
        return float(np.max(np.abs(prec[rows, cols] - prec[cols, rows]), initial=0.0))
    worst = 0.0
    for s in range(0, prec.shape[0], STRIP_ROWS):
        e = s + STRIP_ROWS
        worst = max(worst, float(np.max(np.abs(prec[s:e, s:] - prec[s:, s:e].T))))
    return worst


def _prove_positive_definite(prec: np.ndarray, pattern: np.ndarray) -> None:
    """Raise ``np.linalg.LinAlgError`` unless P, whose ``_nonzeros`` are
    ``pattern``, is PD (see the module docstring)."""
    n = prec.shape[0]
    rows, cols = divmod(pattern, n)
    u, v = rows[rows > cols], cols[rows > cols]  # the lower triangle's pattern
    w, diag, left = prec[u, v], prec.diagonal().copy(), np.arange(n)
    while len(left):  # eliminate the leaves, which make no fill, a round at a time
        leaf = np.zeros(n, dtype=bool)
        leaf[left] = (np.bincount(u, minlength=n) + np.bincount(v, minlength=n))[left] <= 1
        leaf[u[leaf[u] & leaf[v]]] = False  # of two joined leaves, the smaller id goes first
        if np.count_nonzero(leaf) < min(BLOCK_FLOOR, len(left) / 2):
            break
        if not (diag[leaf] > 0.0).all():
            raise np.linalg.LinAlgError("not positive definite")
        gone = leaf[u] | leaf[v]
        x, y = np.where(leaf[u], (u, v), (v, u))[:, gone]  # each gone edge's leaf, neighbour
        diag -= np.bincount(y, w[gone] ** 2 / diag[x], minlength=n)
        u, v, w, left = u[~gone], v[~gone], w[~gone], left[~leaf[left]]
    if len(left):  # by rank among those left; each block's factor only has to exist
        for _ in _envelope_factors(len(left), *np.searchsorted(left, (u, v)), w, diag[left]):
            pass


def _envelope_factors(m: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, diag: np.ndarray):
    """Factor the m x m matrix with diagonal ``diag`` and lower triangle w at (u, v),
    u > v, by the module docstring's block Cholesky.  Yields each block's rows, those
    of the next block that it couples to (by position there) and the factor [[L_tt, 0],
    [L_t+1,t, L22]] of the block so bordered; ``np.linalg.LinAlgError`` if not PD."""
    adj = adjacency(m, u, v)
    label = component_labels(adj)
    order = np.argsort(label, kind="stable")  # by component, members ascending
    at = np.argsort(order)  # position in order
    band = np.zeros(m, dtype=np.intp)  # each component's bandwidth, at its label
    np.maximum.at(band, label[u], at[u] - at[v])
    wide = band > 2 * BLOCK_FLOOR
    if wide.any():
        order[wide[label[order]]] = reverse_cuthill_mckee(adj, label, np.flatnonzero(wide))
        at = np.argsort(order)
    lo, hi = np.minimum(at[u], at[v]), np.maximum(at[u], at[v])  # each coupling's positions
    reach = np.arange(m)  # reach[p]: the farthest position that one up to p couples to
    np.maximum.at(reach, lo, hi)
    reach = np.maximum.accumulate(reach).tolist()
    ends = [min(m, BLOCK_FLOOR)]  # the next block holds every coupling of those before it
    while ends[-1] < m:
        ends.append(min(m, max(ends[-1] + BLOCK_FLOOR, reach[ends[-1] - 1] + 1)))
    by = np.argsort(lo)
    lo, hi, w = lo[by], hi[by], w[by]
    coupled = np.zeros(m, dtype=bool)  # the rows that a coupling across a cut reaches
    coupled[hi[hi >= np.repeat(ends, np.diff([0, *ends]))[lo]]] = True
    diag, slot = diag[order], np.full(m, -1)  # by position; each position's row in k
    s, carry, held = 0, np.zeros((0, 0)), np.zeros(0, dtype=np.intp)
    for e, cut in zip(ends, [*ends[1:], m]):
        # the block, bordered by the rows of the next block that it couples to, built
        # from the updated diagonal and the lower triangle's list, not gathered from P
        near = np.flatnonzero(coupled[e:cut]) + e
        pick = np.concatenate((np.arange(s, e), near))
        slot[pick] = np.arange(len(pick))
        i, j = np.searchsorted(lo, (s, cut))  # the couplings from the block and the next
        r, c = slot[hi[i:j]], slot[lo[i:j]]
        inside = (r >= 0) & (c >= 0)
        k = np.zeros((len(pick), len(pick)))
        k[r[inside], c[inside]] = w[i:j][inside]  # r > c: the lower triangle
        k.flat[::len(pick) + 1] = diag[pick]
        k[held[:, None], held] = carry  # the Schur block of the rows the last block held
        factor = np.linalg.cholesky(k)
        slot[pick], tail = -1, factor[e - s:, e - s:]  # L22 L22^T is near's Schur block
        yield order[s:e], near - e, factor
        carry, held, s = tail @ tail.T, near - e, e


def _envelope_term(p: np.ndarray, tau: np.ndarray, d: np.ndarray, i: np.ndarray,
                   j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Γ's term P_d,tau P_tau,tau^-1 P_tau,d of the component ``tau`` with boundary ``d``
    (ids, ascending) by the module docstring's block sweeps, from the entries (i, j) of
    its rows of P's pattern, row-major; and the order of d its rows and columns take."""
    m, width, r, inner = len(tau), len(d), np.searchsorted(tau, i), np.isin(j, tau)
    lower = inner & (i > j)  # rows r by rank in tau; inner: the entries within tau
    blocks = list(_envelope_factors(m, r[lower], np.searchsorted(tau, j[lower]),
                                    p[i[lower], j[lower]], p[tau, tau]))
    r, c, x = r[~inner], np.searchsorted(d, j[~inner]), p[i[~inner], j[~inner]]  # P_tau,d
    at = np.argsort(np.concatenate([rows for rows, _, _ in blocks]))[r]  # entries' positions
    first = np.full(width, m)  # the first position that couples to each column
    np.minimum.at(first, c, at)
    order = np.argsort(first, kind="stable")  # the columns by the block they join at
    c = np.argsort(order)[c]
    ends = np.cumsum([len(rows) for rows, _, _ in blocks])
    joined = np.searchsorted(first[order], ends)  # the columns joined up to each block
    lo = np.full(len(blocks), width)  # each block's first column
    np.minimum.at(lo, np.searchsorted(ends, at, side="right"), c)
    b = np.zeros((m, width))
    b[r, c] = x
    sweeps, below, held = [], np.zeros((0, 0)), np.zeros(0, dtype=np.intp)
    for (rows, near, f), cols in zip(blocks, joined):  # L Y = P_tau,d, a block at a time
        inv, rhs = np.linalg.inv(f[:len(rows), :len(rows)]), b[rows, :cols]
        rhs[held, :below.shape[1]] -= below
        sweeps.append((rows, near, f, inv, inv @ rhs))
        below, held = f[len(rows):, :len(rows)] @ sweeps[-1][-1], near
    # L^T X = Y on Y's columns alone, and P_d,tau X summed a block at a time: row a reads
    # X in rows whose blocks a has joined by, so its lower triangle is exact
    g, x_next = np.zeros((width, width)), np.zeros((0, width))
    for (rows, near, f, inv, y), s in zip(sweeps[::-1], lo[::-1]):
        y -= f[len(rows):, :len(rows)].T @ x_next[near, :y.shape[1]]
        x_next = inv.T @ y
        g[s:y.shape[1], :y.shape[1]] += b[rows, s:y.shape[1]].T @ x_next
    for s in range(0, width, STRIP_ROWS):  # mirror the lower triangle, a strip at a time
        e = s + STRIP_ROWS
        g[s:e, s:e] = np.tril(g[s:e, s:e]) + np.tril(g[s:e, s:e], -1).T
        g[s:e, e:] = g[e:, s:e].T
    return g, order


def _gamma(m: GaussianModel, a) -> tuple[VarSet, np.ndarray, np.ndarray]:
    """Sorted retained set, innovation matrix Γ and marginal block P_aa - Γ, both
    read-only, computed once per (model, retained set): the model keeps the last
    ones, in a slot replaced whole, so concurrent callers at worst compute them twice.
    The components of z and their boundaries come from one pass of
    :func:`~margraph.components.eliminated_components` over the rows of z of P's pattern."""
    a = _require_subset(a, range(m.n), "model")
    if not a:
        raise InvalidInputError("retained set must be non-empty")
    cached = m._innovation
    if cached is not None and cached[0] == a:
        return cached
    k, n, p, cols = len(a), m.n, m.precision, np.asarray(a)
    eliminated = np.ones(n, dtype=bool)
    eliminated[cols] = False
    pattern = _pattern(m)
    # the pattern's entries in the rows of z, as (row, column) ids
    i, j = divmod(pattern[eliminated[pattern // n]], n)
    comp, z, sizes, (owner, ds) = eliminated_components(n, i, j, eliminated)
    ds = np.searchsorted(cols, ds)  # boundaries, by position in a
    ends = np.cumsum(sizes).tolist()
    cut = np.searchsorted(owner, np.arange(len(sizes) + 1)).tolist()
    # a component as dense as the constructor's rule for factoring P whole goes whole
    banded = np.bincount(comp[i[eliminated[j]]], minlength=len(sizes)) < 2 * BLOCK_FLOOR * sizes
    stacks: dict[tuple[int, int, bool], list] = {}
    for s, e, b, c, band in zip([0, *ends], ends, cut, cut[1:], banded):
        stacks.setdefault((e - s, c - b, e - s > SOLVE_LEAF and band), []).append((z[s:e], ds[b:c]))
    gamma = np.zeros(k * k)
    try:
        for (size, width, wide), members in stacks.items():
            if wide:  # one component at a time, along its envelope
                for tau, d in members:
                    mine = comp[i] == comp[tau[0]]
                    term, order = _envelope_term(p, tau, cols[d], i[mine], j[mine])
                    np.add.at(gamma, (d[order, None] * k + d[order]).ravel(), term.ravel())
                continue
            taus = np.array([tau for tau, _ in members])
            ds = np.array([d for _, d in members])
            chol = np.linalg.cholesky(p[taus[:, :, None], taus[:, None, :]])
            if width:
                y = np.linalg.solve(chol, p[taus[:, :, None], cols[ds][:, None, :]])
                terms = np.matmul(y.transpose(0, 2, 1), y).ravel()
                del chol, y  # up to |z| x |a| each: free them before the scatter
                np.add.at(gamma, (ds[:, :, None] * k + ds[:, None, :]).ravel(), terms)
    except np.linalg.LinAlgError:
        raise InvalidInputError(
            "eliminated precision block is not positive definite; corrupted input") from None
    gamma = gamma.reshape(k, k)
    block = p[np.ix_(a, a)] - gamma
    if not np.all(np.isfinite(block)):  # only rounding at the float range's edge reaches this
        raise InvalidInputError("non-finite entries in the Gaussian model")
    gamma.setflags(write=False)
    block.setflags(write=False)
    m._innovation = (a, gamma, block)
    return m._innovation


def marginal_precision(m: GaussianModel, a) -> GaussianModel:
    """Marginal model on ``a``: restricted mean, the Schur complement the model keeps
    as precision, not re-checked (see the module docstring): at the block's scale, not
    P's, a re-check would refuse the asymmetry of some models the constructor accepted."""
    a, _, block = _gamma(m, a)
    return GaussianModel._of(m.mean[list(a)], block)


def innovation_matrix(m: GaussianModel, a) -> np.ndarray:
    """The correction the eliminated block subtracts from the retained one.

    Satisfies: marginal precision = retained block - innovation matrix.
    Rows/columns follow the sorted order of ``a``.
    """
    return np.array(_gamma(m, a)[1])


def _scaled_tol(matrix: np.ndarray, tol: float | None) -> float:
    """``tol``, refused if NaN, infinite or negative, or by default 1e-9 times the
    largest |entry| of ``matrix``, taken without an |entry| temporary as the
    constructor takes it."""
    if tol is None:
        return 1e-9 * float(max(np.max(matrix, initial=0.0), -np.min(matrix, initial=0.0)))
    return _require_tolerance(tol, "tol")


def _upper_edges(ids: tuple, flat: np.ndarray) -> Graph:
    """Graph on ``ids`` with an edge (ids[i], ids[j]) for each i < j whose
    row-major flat index i len(ids) + j is in ``flat``."""
    rows, cols = divmod(flat, len(ids))
    upper = rows < cols
    at = np.asarray(ids, dtype=int)
    return Graph._of(ids, frozenset(zip(at[rows[upper]].tolist(), at[cols[upper]].tolist())))


def pattern_graph(m: GaussianModel, tol: float | None = None) -> Graph:
    """Graph with an edge wherever the precision's upper triangle has an |entry|
    above ``tol`` (finite, >= 0; by default 1e-9 times P's largest |entry|)."""
    pattern, p = _pattern(m), m.precision
    values = np.take(p, pattern)  # with the diagonal, these hold P's largest |entry|
    tol = max(_scaled_tol(values, tol), _scaled_tol(p.diagonal(), tol))
    return _upper_edges(tuple(range(m.n)), pattern[np.abs(values) > tol])


def gaussian_marginal_graph(m: GaussianModel, a, tol: float | None = None) -> Graph:
    """Edges of the marginal model: non-null marginal precision entries.

    ``tol`` (finite, >= 0) defaults to 1e-9 times the largest absolute
    entry of the marginal precision (scale-free zero test).
    """
    a, _, block = _gamma(m, a)
    above = np.abs(block)  # replaced by the mask, so it is freed before the index arrays
    cut = 1e-9 * float(above.max(initial=0.0)) if tol is None else _scaled_tol(above, tol)
    above = above > cut
    return _upper_edges(a, np.flatnonzero(above))
