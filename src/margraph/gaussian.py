"""Gaussian instantiation: marginalization as a Schur complement of the
precision matrix, and the innovation matrix that explains which edges the
marginal keeps, gains, or can lose.

For a Gaussian model the normalized pairwise interactions are exactly the
off-diagonal precision entries, so the marginal precision splits into the
retained block (the restricted potential) minus the innovation matrix.
The eliminated block is handled through its Cholesky factor L rather than
an explicit inverse: with Y = L^-1 P_za the innovation matrix is Y^T Y,
symmetric by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .graphs import Graph, VarSet, varset

SYMMETRY_TOL = 1e-12


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
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(prec)):
            raise InvalidInputError("non-finite entries in the Gaussian model")
        scale = max(1.0, float(np.max(np.abs(prec))) if prec.size else 1.0)
        if float(np.max(np.abs(prec - prec.T), initial=0.0)) > SYMMETRY_TOL * scale:
            raise InvalidInputError("precision matrix is not symmetric")
        try:
            np.linalg.cholesky(prec)
        except np.linalg.LinAlgError:
            raise InvalidInputError("precision matrix is not positive definite") from None
        mean.setflags(write=False)
        prec.setflags(write=False)
        self.mean = mean
        self.precision = prec
        # (retained set, read-only innovation matrix) of the last split
        self._innovation = None

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    def __repr__(self) -> str:
        return f"GaussianModel(n={self.n})"


def _split(m: GaussianModel, a) -> tuple[VarSet, VarSet]:
    a = varset(a)
    if not a:
        raise InvalidInputError("retained set must be non-empty")
    if not set(a) <= set(range(m.n)):
        raise InvalidInputError(f"ids {sorted(set(a) - set(range(m.n)))} outside the model")
    z = varset(set(range(m.n)) - set(a))
    return a, z


def _gamma(m: GaussianModel, a) -> tuple[VarSet, np.ndarray]:
    """Sorted retained set and its read-only innovation matrix, factored
    once per (model, retained set): the model keeps the last one.  The slot
    is replaced whole, so concurrent callers at worst factor twice."""
    a, z = _split(m, a)
    cached = m._innovation
    if cached is not None and cached[0] == a:
        return cached
    if not z:
        gamma = np.zeros((len(a), len(a)))
    else:
        p = m.precision
        try:
            chol = np.linalg.cholesky(p[np.ix_(z, z)])
        except np.linalg.LinAlgError:
            raise InvalidInputError(
                "eliminated precision block is not positive definite; corrupted input") from None
        y = np.linalg.solve(chol, p[np.ix_(z, a)])
        gamma = y.T @ y
    gamma.setflags(write=False)
    m._innovation = (a, gamma)
    return m._innovation


def _marginal_block(m: GaussianModel, a) -> tuple[VarSet, np.ndarray]:
    a, gamma = _gamma(m, a)
    return a, m.precision[np.ix_(a, a)] - gamma


def marginal_precision(m: GaussianModel, a) -> GaussianModel:
    """Marginal model on ``a``: restricted mean, Schur-complement precision."""
    a, block = _marginal_block(m, a)
    return GaussianModel(m.mean[list(a)], block)


def innovation_matrix(m: GaussianModel, a) -> np.ndarray:
    """The correction the eliminated block subtracts from the retained one.

    Satisfies: marginal precision = retained block - innovation matrix.
    Rows/columns follow the sorted order of ``a``.
    """
    return np.array(_gamma(m, a)[1])


def _scaled_tol(matrix: np.ndarray, tol: float | None) -> float:
    if tol is not None:
        return tol
    return 1e-9 * float(np.max(np.abs(matrix), initial=0.0))


def _edges_above(matrix: np.ndarray, ids, t: float) -> frozenset:
    """Pairs (ids[i], ids[j]), i < j, whose off-diagonal entry exceeds ``t``."""
    rows, cols = np.nonzero(np.triu(np.abs(matrix) > t, 1))
    ids = np.asarray(ids, dtype=int)
    return frozenset(zip(ids[rows].tolist(), ids[cols].tolist()))


def pattern_graph(m: GaussianModel, tol: float | None = None) -> Graph:
    """Graph with an edge wherever the precision has a non-null off-diagonal."""
    t = _scaled_tol(m.precision, tol)
    return Graph(tuple(range(m.n)), _edges_above(m.precision, range(m.n), t))


def gaussian_marginal_graph(m: GaussianModel, a, tol: float | None = None) -> Graph:
    """Edges of the marginal model: non-null marginal precision entries.

    ``tol`` defaults to 1e-9 times the largest absolute entry of the
    marginal precision (scale-free zero test).
    """
    a, mp = _marginal_block(m, a)
    return Graph(a, _edges_above(mp, a, _scaled_tol(mp, tol)))
