"""Finite-domain Gibbs potentials: interaction tables, normalization and
hypergraphs of interaction scopes.

A potential is a collection of real-valued interaction tables, one per
variable subset, defining an unnormalized density exp(-sum of tables).
The *normalized* form of a potential is the unique equivalent one whose
tables vanish whenever any argument sits at the anchor value 0; it gives
the finest factorization and is what the hypergraph of a model is read
from.  Normalization, and later the innovation tables created by
marginalization, both come down to one primitive: an anchored Mobius
(finite-difference) transform that splits a table over a scope D into its
normalized pieces on all subsets of D.  That transform lives here.

The transform runs once per group of like-shaped tables, not once per
table: tables of one shape and one set of anchor positions are stacked
along a leading axis, differenced together, and every sub-scope piece is
sliced out of the stack.  Pieces still add onto each sub-scope in table
order, then subset order, as a table-by-table loop would, so the sums do
not depend on the grouping.  :func:`is_normalized` likewise takes one
masked max per group.

Each :class:`InteractionTable` computes its max-abs entry once; that value
is both its finiteness check (a NaN or an inf makes it non-finite) and
what every null-table test reads (:func:`max_abs` for arrays that are not
tables yet).

Table layout is normative for file serialization: entries are dense in
assignment-major order with the last scope variable fastest, i.e. the
C-order raveling of an array whose axes follow the sorted scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidInputError, NotNormalizedError
from .graphs import Graph, VarSet, Variables, varset

# A table is treated as identically zero iff its max-abs entry is below
# NULL_TOL; log-sum computations make exact zeros unattainable, and this
# threshold separates true cancellation from rounding at desk scale.
NULL_TOL = 1e-9

# Tolerance for the exact structural zeroes required of normalized tables.
NORMALIZED_TOL = 1e-12


def max_abs(values: np.ndarray) -> float:
    """Largest absolute entry (0 for an empty array); NaN if any entry is
    NaN, so the result is finite exactly when every entry is."""
    return float(np.abs(values).max(initial=0.0))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class InteractionTable:
    """Dense real table over the joint assignments of a sorted scope.

    ``values`` has one axis per scope variable, in scope order.  The empty
    scope (a constant) is permitted for intermediate quantities but never
    stored inside a :class:`Potential`.  ``max_abs`` is the largest
    absolute entry, computed once; the table is null within a tolerance
    when ``max_abs`` is at most that tolerance.
    """

    scope: VarSet
    values: np.ndarray
    max_abs: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "scope", varset(self.scope))
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != len(self.scope):
            raise InvalidInputError(
                f"table for scope {self.scope} has {vals.ndim} axes, expected {len(self.scope)}")
        peak = max_abs(vals)
        if not math.isfinite(peak):
            raise InvalidInputError(f"non-finite entries in table for scope {self.scope}")
        object.__setattr__(self, "max_abs", peak)
        object.__setattr__(self, "values", _readonly(vals))

    def ravel(self) -> list[float]:
        """Entries in the normative serialization order."""
        return [float(x) for x in self.values.ravel(order="C")]


class Potential:
    """A set of interaction tables over a shared variable registry.

    At most one table per scope; the empty scope is excluded (its constant
    is absorbed by the density's normalizing constant).
    """

    __slots__ = ("vars", "tables", "_by_scope")

    def __init__(self, vars: Variables, tables: Iterable[InteractionTable] = ()):
        self.vars = vars
        seen: dict[VarSet, InteractionTable] = {}
        n = len(vars)
        for t in tables:
            if not t.scope:
                raise InvalidInputError("empty-scope table not allowed in a potential")
            if t.scope[0] < 0 or t.scope[-1] >= n:
                raise InvalidInputError(f"scope {t.scope} outside the variable registry")
            if t.values.shape != vars.sizes(t.scope):
                raise InvalidInputError(
                    f"table for scope {t.scope} has shape {t.values.shape}, "
                    f"expected {vars.sizes(t.scope)}")
            if t.scope in seen:
                raise InvalidInputError(f"duplicate table for scope {t.scope}")
            seen[t.scope] = t
        self.tables = tuple(seen[s] for s in sorted(seen))
        self._by_scope = {t.scope: t for t in self.tables}

    @classmethod
    def from_arrays(cls, vars: Variables, arrays: dict) -> "Potential":
        return cls(vars, (InteractionTable(varset(s), np.asarray(v, dtype=float))
                          for s, v in arrays.items()))

    def scopes(self) -> list[VarSet]:
        return [t.scope for t in self.tables]

    def table_for(self, scope) -> InteractionTable | None:
        return self._by_scope.get(varset(scope))

    def __len__(self) -> int:
        return len(self.tables)

    def __repr__(self) -> str:
        return f"Potential(scopes={self.scopes()!r})"


class PotentialFamily:
    """Non-empty list of potentials over one registry (finitely many
    instantiations of a parametric model)."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Potential]):
        members = tuple(members)
        if not members:
            raise InvalidInputError("a potential family needs at least one member")
        base = members[0].vars
        for m in members[1:]:
            if m.vars != base:
                raise InvalidInputError("family members use different variable registries")
        self.members = members

    @property
    def vars(self) -> Variables:
        return self.members[0].vars

    def __iter__(self) -> Iterator[Potential]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class Hypergraph:
    """A set of variable subsets, kept in lexicographic order.

    Hyperedges must be non-empty unless the caller explicitly permits the
    empty set (used to record empty component boundaries).
    """

    __slots__ = ("edges",)

    def __init__(self, edges: Iterable[Iterable[int]] = (), allow_empty: bool = False):
        canon = {varset(e) for e in edges}
        if not allow_empty and () in canon:
            raise InvalidInputError("empty hyperedge not permitted here")
        self.edges = tuple(sorted(canon))

    def __iter__(self) -> Iterator[VarSet]:
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, e) -> bool:
        return varset(e) in set(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.edges == other.edges

    def __hash__(self) -> int:
        return hash(self.edges)

    def __repr__(self) -> str:
        return f"Hypergraph({[set(e) or set() for e in self.edges]!r})"

    @property
    def has_empty(self) -> bool:
        return () in set(self.edges)

    def restrict(self, a) -> "Hypergraph":
        """Hyperedges that are subsets of ``a``."""
        a = set(varset(a))
        return Hypergraph((e for e in self.edges if set(e) <= a), allow_empty=True)

    def union(self, other: "Hypergraph") -> "Hypergraph":
        return Hypergraph(chain(self.edges, other.edges), allow_empty=True)

    def difference(self, other: "Hypergraph") -> "Hypergraph":
        drop = set(other.edges)
        return Hypergraph((e for e in self.edges if e not in drop), allow_empty=True)


# ---------------------------------------------------------------------------
# The anchored Mobius transform and its sub-scope expansion.
# ---------------------------------------------------------------------------

def _zero_positions(vars: Variables, scope: VarSet) -> tuple[int, ...]:
    return tuple(vars.zero_index(v) for v in scope)


def _anchored_differences(stack: np.ndarray, zero_positions: Sequence[int]) -> np.ndarray:
    """Anchored finite-difference transform of a stack of tables, along
    every axis but the leading (stack) one.

    In the result, the entry at an assignment whose non-anchor coordinates
    form the sub-scope C equals the alternating sum of the input over all
    ways of pinning coordinates of C back to the anchor, i.e. the value of
    the normalized piece on C at that assignment.
    """
    out = np.asarray(stack, dtype=float)
    for ax, z in enumerate(zero_positions, start=1):
        ref = np.take(out, [z], axis=ax)
        new = out - ref
        idx = [slice(None)] * out.ndim
        idx[ax] = z
        new[tuple(idx)] = out[tuple(idx)]
        out = new
    return out


@lru_cache(maxsize=256)
def _off_anchor_counts(shape: tuple[int, ...], zero_positions: tuple[int, ...]) -> np.ndarray:
    """Number of coordinates away from the anchor at each entry of a grid.

    An entry has a coordinate at the anchor exactly when its count is below
    the number of axes; pinning the axes outside a sub-scope C to the anchor
    leaves a slice where the same holds with |C| in place of that number, so
    one array serves the zero-coordinate masks of every sub-scope.
    Read-only and cached, since a few shapes recur across many tables.
    """
    count = np.zeros(shape, dtype=np.uint8)
    for ax, (n, z) in enumerate(zip(shape, zero_positions)):
        off = np.arange(n) != z
        count += off.reshape([n if k == ax else 1 for k in range(len(shape))])
    count.setflags(write=False)
    return count


def _like_shaped(vars: Variables, scoped: Sequence[tuple[VarSet, np.ndarray]]) -> dict:
    """Positions in ``scoped`` grouped by (shape, anchor positions) of their
    tables, in first-seen order."""
    groups: dict[tuple, list[int]] = {}
    for k, (scope, values) in enumerate(scoped):
        groups.setdefault((values.shape, _zero_positions(vars, scope)), []).append(k)
    return groups


def _split(vars: Variables,
           scoped: Sequence[tuple[VarSet, np.ndarray]]) -> dict[VarSet, np.ndarray]:
    """Split each (scope, values) table into normalized pieces on every
    non-empty subset of its scope (the constant piece is dropped) and sum
    the pieces per sub-scope.

    Each group of like-shaped tables takes one transform and one masked
    slice per subset pattern.  Pieces add onto a sub-scope in the order of
    ``scoped``, then subset order, whatever the grouping.
    """
    pieces: list = [()] * len(scoped)
    for (shape, zp), members in _like_shaped(vars, scoped).items():
        m = _anchored_differences(np.stack([scoped[k][1] for k in members]), zp)
        count = _off_anchor_counts(shape, zp)
        subs = [sub for r in range(1, len(shape) + 1) for sub in combinations(range(len(shape)), r)]
        sliced = []
        for sub in subs:
            idx = tuple(slice(None) if ax in sub else z for ax, z in enumerate(zp))
            sliced.append(np.where(count[idx] == len(sub), m[(slice(None),) + idx], 0.0))
        for j, k in enumerate(members):
            scope = scoped[k][0]
            pieces[k] = [(tuple([scope[ax] for ax in sub]), s[j]) for sub, s in zip(subs, sliced)]
    acc: dict[VarSet, np.ndarray] = {}
    for per_table in pieces:
        for sub_scope, piece in per_table:
            acc[sub_scope] = acc[sub_scope] + piece if sub_scope in acc else piece
    return acc


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------

def energy(u: Potential, values: Sequence[float]) -> float:
    """Sum of all interaction tables at a full assignment of the registry.

    ``values`` gives one domain value per registered variable, in id order.
    """
    n = len(u.vars)
    if len(values) != n:
        raise InvalidInputError(f"assignment has {len(values)} values, expected {n}")
    pos = []
    for i, v in enumerate(values):
        dom = u.vars.domain(i)
        try:
            pos.append(dom.index(float(v)))
        except ValueError:
            raise InvalidInputError(
                f"value {v!r} not in the domain of {u.vars.labels[i]!r}") from None
    total = 0.0
    for t in u.tables:
        total += float(t.values[tuple(pos[i] for i in t.scope)])
    return total


def _aligned(values: np.ndarray, sub: VarSet, scope: VarSet) -> np.ndarray:
    """``values`` (trailing axes in ``sub`` order) reshaped to broadcast
    against a grid whose trailing axes follow ``scope``, a superset of
    ``sub``; leading (stack) axes are kept."""
    lead = values.ndim - len(sub)
    sizes = dict(zip(sub, values.shape[lead:]))
    return values.reshape(values.shape[:lead] + tuple(sizes.get(v, 1) for v in scope))


def energy_grid(u: Potential, scope) -> np.ndarray:
    """Dense energy tensor over ``scope`` (axes in scope order).

    Every interaction scope of ``u`` must be contained in ``scope``.
    """
    scope = varset(scope)
    grid = np.zeros(u.vars.sizes(scope))
    for t in u.tables:
        if not set(t.scope) <= set(scope):
            raise InvalidInputError(
                f"interaction scope {t.scope} not contained in grid scope {scope}")
        grid = grid + _aligned(t.values, t.scope, scope)
    return grid


def normalize_potential(u0: Potential, null_tol: float = NULL_TOL) -> Potential:
    """The unique equivalent potential vanishing on zero-anchored assignments.

    Each input table is split by the anchored Mobius transform into
    normalized pieces on its sub-scopes; pieces for the same scope coming
    from different tables accumulate.  Tables that end up identically zero
    (max-abs below ``null_tol``) are dropped.  The result induces the same
    density as the input up to one multiplicative constant.
    """
    acc = _split(u0.vars, [(t.scope, t.values) for t in u0.tables])
    tables = [InteractionTable(s, v) for s, v in acc.items()]
    return Potential(u0.vars, (t for t in tables if t.max_abs > null_tol))


def is_normalized(u: Potential, tol: float = NORMALIZED_TOL) -> bool:
    """True iff every entry at an assignment with some coordinate 0 is 0 (within ``tol``).

    Like-shaped tables are stacked and checked by one masked max.
    """
    scoped = [(t.scope, t.values) for t in u.tables]
    for (shape, zp), members in _like_shaped(u.vars, scoped).items():
        on_anchor = _off_anchor_counts(shape, zp) < len(shape)
        if max_abs(np.stack([scoped[k][1] for k in members])[:, on_anchor]) > tol:
            return False
    return True


def require_normalized(u: Potential, tol: float = NORMALIZED_TOL) -> None:
    if not is_normalized(u, tol):
        raise NotNormalizedError(
            "potential is not normalized; call normalize_potential first")


def restrict(u: Potential, a) -> Potential:
    """Keep exactly the tables whose scope is contained in ``a``."""
    a = varset(a)
    extra = set(a) - set(u.vars.all_ids())
    if extra:
        raise InvalidInputError(f"ids {sorted(extra)} outside the registry")
    inside = set(a)
    return Potential(u.vars, (t for t in u.tables if set(t.scope) <= inside))


def hypergraph_of(fam, null_tol: float = NULL_TOL) -> Hypergraph:
    """Scopes carrying a non-null table in at least one family member.

    Accepts a :class:`PotentialFamily`, a single :class:`Potential`, or an
    iterable of potentials.  Members are expected to be normalized already.
    """
    if isinstance(fam, Potential):
        members: Iterable[Potential] = (fam,)
    elif isinstance(fam, PotentialFamily):
        members = fam.members
    else:
        members = tuple(fam)
    scopes = set()
    for m in members:
        for t in m.tables:
            if t.max_abs > null_tol:
                scopes.add(t.scope)
    return Hypergraph(scopes)


def induced_graph(h: Hypergraph, vars_ids) -> Graph:
    """Graph on ``vars_ids`` joining every pair that shares a hyperedge."""
    vs = varset(vars_ids)
    inside = set(vs)
    edges = set()
    for e in h:
        if not set(e) <= inside:
            raise InvalidInputError(f"hyperedge {set(e)} not contained in the vertex set")
        edges |= set(combinations(e, 2))
    return Graph(vs, frozenset(edges))


def precedes(h1: Hypergraph, h2: Hypergraph) -> bool:
    """True iff every element of ``h1`` is contained in some element of ``h2``."""
    bigger = [set(e) for e in h2]
    return all(any(set(e1) <= e2 for e2 in bigger) for e1 in h1)

