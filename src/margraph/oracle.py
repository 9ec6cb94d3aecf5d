"""Brute-force ground truth for small finite models.

Deliberately naive: full enumeration of the joint state space, exact
summation for marginals, and a recovery of the normalized potential from a
density table by peeling interaction tables off scope by scope.  Nothing
here shares an algorithm with the marginalization engine, so agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import STATE_LIMIT, InvalidInputError, ResourceLimitError
from .graphs import VarSet, Variables, varset
from .potentials import NULL_TOL, InteractionTable, Potential, energy_grid


@dataclass(frozen=True)
class DensityTable:
    """Exact joint probabilities over a scope, axes in scope order."""

    vars: Variables
    scope: VarSet
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scope", varset(self.scope))
        p = np.asarray(self.probs, dtype=float)
        if p.shape != self.vars.sizes(self.scope):
            raise InvalidInputError(
                f"probability table has shape {p.shape}, expected {self.vars.sizes(self.scope)}")
        if not np.all(p > 0.0):
            raise InvalidInputError("density tables must be strictly positive")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise InvalidInputError(f"probabilities sum to {total}, not 1")
        p = np.array(p)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


def joint_table(u: Potential, scope=None) -> DensityTable:
    """Exact joint distribution exp(-energy)/K over ``scope`` by full summation.

    ``scope`` defaults to the whole registry; it must cover every
    interaction scope of ``u``.
    """
    scope = u.vars.all_ids() if scope is None else varset(scope)
    states = 1
    for s in u.vars.sizes(scope):
        states *= s
    if states > STATE_LIMIT:
        raise ResourceLimitError(
            f"state space of {states} assignments exceeds the limit of {STATE_LIMIT}")
    h = energy_grid(u, scope)
    p = np.exp(-(h - h.min()))
    return DensityTable(u.vars, scope, p / p.sum())


def marginal_table(t: DensityTable, a) -> DensityTable:
    """Exact summation over the variables of the scope outside ``a``."""
    a = varset(a)
    if not set(a) <= set(t.scope):
        raise InvalidInputError(f"ids {sorted(set(a) - set(t.scope))} outside the table scope")
    axes = tuple(k for k, v in enumerate(t.scope) if v not in set(a))
    probs = t.probs.sum(axis=axes) if axes else np.array(t.probs)
    return DensityTable(t.vars, a, probs)


def normalized_potential_from_table(t: DensityTable, null_tol: float = NULL_TOL) -> Potential:
    """Recover the unique normalized potential whose density equals ``t``.

    Works scope by scope, smallest first: the table on a scope C is the
    anchored log-density slice with everything outside C pinned to the
    anchor value, minus all previously recovered tables on proper subsets
    of C.  Tables that come out null (within ``null_tol``) are dropped
    from the returned potential but still enter the recursion exactly.
    """
    k = len(t.scope)
    g = -np.log(t.probs)
    zp = tuple(t.vars.zero_index(v) for v in t.scope)
    anchor = float(g[zp])
    sizes = t.vars.sizes(t.scope)
    recovered: dict[tuple[int, ...], np.ndarray] = {}
    for size in range(1, k + 1):
        for axes in combinations(range(k), size):
            inside = set(axes)
            idx = tuple(slice(None) if ax in inside else zp[ax] for ax in range(k))
            tbl = np.array(g[idx]) - anchor
            for sub_size in range(1, size):
                for sub in combinations(axes, sub_size):
                    prev = recovered[sub]
                    shape = [1] * size
                    for pos, ax in enumerate(axes):
                        if ax in sub:
                            shape[pos] = sizes[ax]
                    tbl -= prev.reshape(shape)
            recovered[axes] = tbl
    tables = [InteractionTable(tuple(t.scope[ax] for ax in axes), tbl)
              for axes, tbl in recovered.items()]
    return Potential(t.vars, (tbl for tbl in tables if tbl.max_abs > null_tol))
