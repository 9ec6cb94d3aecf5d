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
term is computed through the Cholesky factor L of P_tau,tau rather than an
explicit inverse: with Y = L^-1 P_tau,d it is Y^T Y, symmetric by
construction.  Components of equal size and boundary width are factored
and solved together as one stack.

Y is found by blocked forward substitution, since L is lower triangular:
split L into [[L11, 0], [L21, L22]] and P_tau,d into rows [B1; B2], solve
L11 Y1 = B1, then L22 Y2 = B2 - L21 Y1, recursively.  A diagonal block of at
most SOLVE_LEAF rows goes to ``np.linalg.solve`` as a whole, so components
that small are solved exactly as a plain ``np.linalg.solve(L, P_tau,d)``.

The constructor proves P positive definite from its lower triangle, as
``np.linalg.cholesky`` would, one component of its pattern at a time: those of
equal size and bandwidth b (member order, at least BLOCK_FLOOR) as one stack, b
rows at a time.  From n (2 BLOCK_FLOOR + 1) non-zeros on, P is factored whole.
The marginal model skips the symmetry scan and this proof, since a Schur
complement of the proved-SPD P is SPD; only finiteness is tested.
"""

from __future__ import annotations

import math

import numpy as np

from .components import component_labels
from .errors import InvalidInputError
from .graphs import Graph, VarSet, varset

SYMMETRY_TOL = 1e-12
# Largest diagonal block the forward substitution hands to np.linalg.solve.
# On the 800-long eliminated chain of a banded n = 1600 model (one BLAS
# thread), leaves of 16 to 192 rows solve in 21-36 ms against 56-62 ms for
# one LU solve, and 256 or more are slower; 128 is the largest leaf in that
# flat range, so the most components keep the plain solve's bits.
SOLVE_LEAF = 128
# Rows per strip of the constructor's symmetry scan.  At n = 1600 strips of
# 32 to 128 rows take 5.3-6.5 ms against 22 ms for max|P - P^T|.
STRIP_ROWS = 64
# Least rows per block of the constructor's banded Cholesky; 16-32 are fastest.
BLOCK_FLOOR = 32


class GaussianModel:
    """Mean vector plus symmetric positive-definite precision matrix."""

    __slots__ = ("mean", "precision", "_innovation")

    def __init__(self, mean, precision):
        mean = np.asarray(mean, dtype=float)
        prec = np.asarray(precision, dtype=float)
        if mean.ndim != 1:
            raise InvalidInputError("mean must be a vector")
        n = mean.shape[0]
        if prec.shape != (n, n):
            raise InvalidInputError(
                f"precision must be {n}x{n} to match the mean, got {prec.shape}")
        # NaN propagates from both reductions: not finite exactly when some entry is not
        largest = float(max(np.max(prec, initial=0.0), -np.min(prec, initial=0.0)))
        if not np.all(np.isfinite(mean)) or not math.isfinite(largest):
            raise InvalidInputError("non-finite entries in the Gaussian model")
        if _asymmetry(prec) > SYMMETRY_TOL * max(1.0, largest):
            raise InvalidInputError("precision matrix is not symmetric")
        try:
            _prove_positive_definite(prec)
        except np.linalg.LinAlgError:
            raise InvalidInputError("precision matrix is not positive definite") from None
        mean.setflags(write=False)
        prec.setflags(write=False)
        self.mean = mean
        self.precision = prec
        # (retained set, read-only innovation matrix) of the last split
        self._innovation = None

    @classmethod
    def _of(cls, mean: np.ndarray, precision: np.ndarray) -> "GaussianModel":
        """A model derived from a checked one: only finiteness is tested."""
        if not np.all(np.isfinite(precision)):
            raise InvalidInputError("non-finite entries in the Gaussian model")
        mean.setflags(write=False)
        precision.setflags(write=False)
        m = object.__new__(cls)
        m.mean, m.precision, m._innovation = mean, precision, None
        return m

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    def __repr__(self) -> str:
        return f"GaussianModel(n={self.n})"


def _asymmetry(prec: np.ndarray) -> float:
    """Largest |prec[i, j] - prec[j, i]| of a finite square matrix.

    Each strip of rows is compared with the same strip of columns, from the
    diagonal on, so no transposed copy of the matrix is built.
    """
    worst = 0.0
    for s in range(0, prec.shape[0], STRIP_ROWS):
        e = s + STRIP_ROWS
        worst = max(worst, float(np.max(np.abs(prec[s:e, s:] - prec[s:, s:e].T))))
    return worst


def _components(label: np.ndarray) -> list[np.ndarray]:
    """Ascending members of each component of a ``component_labels`` labelling."""
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1) if len(label) else []


def _prove_positive_definite(prec: np.ndarray) -> None:
    """Raise ``np.linalg.LinAlgError`` unless P is PD (see the module docstring)."""
    n = prec.shape[0]
    mask, count = np.empty((n, n), dtype=bool), 0
    for s in range(0, n, STRIP_ROWS):
        e = s + STRIP_ROWS
        count += np.count_nonzero(np.not_equal(prec[s:e], 0.0, out=mask[s:e]))
        if count >= n * (2 * BLOCK_FLOOR + 1):  # denser than any band of that half-width
            np.linalg.cholesky(prec)
            return
    rows, cols = divmod(np.flatnonzero(mask), n)
    rows, cols = rows[rows > cols], cols[rows > cols]  # the lower triangle's pattern
    label = component_labels(n, rows, cols)
    # each component's bandwidth in its member order, at its smallest member
    at = np.argsort(np.argsort(label, kind="stable"))  # position in that order
    band = np.full(n, BLOCK_FLOOR)
    np.maximum.at(band, label[rows], at[rows] - at[cols])
    stacks: dict[tuple[int, int], list] = {}
    for tau in _components(label):
        stacks.setdefault((len(tau), int(band[tau[0]])), []).append(tau)
    for (size, step), group in stacks.items():
        stack, carry = np.array(group), 0.0
        for s in range(0, size, step):
            block, below = stack[:, s:s + step], stack[:, s + step:s + 2 * step]
            chol = np.linalg.cholesky(prec[block[:, :, None], block[:, None, :]] - carry)
            if below.size:  # block k + 1 less X^T X, where L_k X = C^T for its coupling C
                x = _solve_lower(chol, prec[below[:, None, :], block[:, :, None]])
                carry = np.matmul(x.transpose(0, 2, 1), x)


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Overwrite ``b`` with Y solving chol Y = b, for lower-triangular
    ``chol``; both may carry the same leading stack axes.  Returns ``b``."""
    n = chol.shape[-1]
    if n <= SOLVE_LEAF:
        b[...] = np.linalg.solve(chol, b)
        return b
    h = n // 2
    top, rest = b[..., :h, :], b[..., h:, :]
    _solve_lower(chol[..., :h, :h], top)
    rest -= np.matmul(chol[..., h:, :h], top)
    _solve_lower(chol[..., h:, h:], rest)
    return b


def _split(m: GaussianModel, a) -> tuple[VarSet, VarSet]:
    a = varset(a)
    if not a:
        raise InvalidInputError("retained set must be non-empty")
    if not set(a) <= set(range(m.n)):
        raise InvalidInputError(f"ids {sorted(set(a) - set(range(m.n)))} outside the model")
    z = varset(set(range(m.n)) - set(a))
    return a, z


def _gamma(m: GaussianModel, a) -> tuple[VarSet, np.ndarray]:
    """Sorted retained set and its read-only innovation matrix, computed
    once per (model, retained set): the model keeps the last one.  The slot
    is replaced whole, so concurrent callers at worst compute it twice."""
    a, z = _split(m, a)
    cached = m._innovation
    if cached is not None and cached[0] == a:
        return cached
    k = len(a)
    p = m.precision
    rows, cols = np.asarray(z, dtype=np.intp), np.asarray(a)
    pattern = p[rows] != 0
    touches = pattern[:, cols]
    stacks: dict[tuple[int, int], list] = {}
    # components of the eliminated block's pattern, by smallest member
    edges = divmod(np.flatnonzero(pattern[:, rows]), len(rows))
    for tau in _components(component_labels(len(rows), *edges)):
        d = np.flatnonzero(touches[tau].any(axis=0))
        stacks.setdefault((len(tau), len(d)), []).append((rows[tau], d))
    gamma = np.zeros(k * k)
    for (_, width), members in stacks.items():
        taus = np.array([tau for tau, _ in members])
        ds = np.array([d for _, d in members])
        try:
            chol = np.linalg.cholesky(p[taus[:, :, None], taus[:, None, :]])
        except np.linalg.LinAlgError:
            raise InvalidInputError(
                "eliminated precision block is not positive definite; "
                "corrupted input") from None
        if width:
            y = _solve_lower(chol, p[taus[:, :, None], cols[ds][:, None, :]])
            terms = np.matmul(y.transpose(0, 2, 1), y).ravel()
            del chol, y  # up to |z| x |a| each: free them before the scatter
            np.add.at(gamma, (ds[:, :, None] * k + ds[:, None, :]).ravel(), terms)
    gamma = gamma.reshape(k, k)
    gamma.setflags(write=False)
    m._innovation = (a, gamma)
    return m._innovation


def _marginal_block(m: GaussianModel, a) -> tuple[VarSet, np.ndarray]:
    a, gamma = _gamma(m, a)
    return a, m.precision[np.ix_(a, a)] - gamma


def marginal_precision(m: GaussianModel, a) -> GaussianModel:
    """Marginal model on ``a``: restricted mean, Schur-complement precision,
    not re-checked (see the module docstring): a re-check at the block's scale,
    not P's, would refuse the asymmetry of some models the constructor accepted."""
    a, block = _marginal_block(m, a)
    return GaussianModel._of(m.mean[list(a)], block)


def innovation_matrix(m: GaussianModel, a) -> np.ndarray:
    """The correction the eliminated block subtracts from the retained one.

    Satisfies: marginal precision = retained block - innovation matrix.
    Rows/columns follow the sorted order of ``a``.
    """
    return np.array(_gamma(m, a)[1])


def _scaled_tol(matrix: np.ndarray, tol: float | None) -> float:
    """``tol``, or by default 1e-9 times the largest |entry| of ``matrix``,
    taken without an |entry| temporary as the constructor takes it."""
    if tol is not None:
        return tol
    return 1e-9 * float(max(np.max(matrix, initial=0.0), -np.min(matrix, initial=0.0)))


def _edges_above(matrix: np.ndarray, ids, tol: float | None) -> frozenset:
    """Pairs (ids[i], ids[j]), i < j, whose |entry| exceeds ``_scaled_tol(matrix, tol)``."""
    rows, cols = divmod(np.flatnonzero(np.abs(matrix) > _scaled_tol(matrix, tol)), len(ids))
    upper = rows < cols
    ids = np.asarray(ids, dtype=int)
    return frozenset(zip(ids[rows[upper]].tolist(), ids[cols[upper]].tolist()))


def pattern_graph(m: GaussianModel, tol: float | None = None) -> Graph:
    """Graph with an edge wherever the precision has a non-null off-diagonal."""
    return Graph._of(tuple(range(m.n)), _edges_above(m.precision, range(m.n), tol))


def gaussian_marginal_graph(m: GaussianModel, a, tol: float | None = None) -> Graph:
    """Edges of the marginal model: non-null marginal precision entries.

    ``tol`` defaults to 1e-9 times the largest absolute entry of the
    marginal precision (scale-free zero test).
    """
    a, mp = _marginal_block(m, a)
    return Graph._of(a, _edges_above(mp, a, tol))
