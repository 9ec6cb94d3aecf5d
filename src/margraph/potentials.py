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

Storage is columnar.  A :class:`Potential` keeps its tables in groups, one
per (shape, anchor positions).  A group holds its scopes as an integer
array whose rows are in lexicographic order, one read-only stack of the
values along a leading axis, and the max-abs entry of every table, taken
by one reduction over the stack.  That vector is the group's finiteness
check and what every null test reads (:func:`max_abs` serves arrays that
are not tables yet).  The public constructor validates each
:class:`InteractionTable` and then groups them; the engine builds its
results as groups directly.  ``tables`` and ``table_for`` hand out
read-only views of the stacks, built on each access.

Every table operation runs once per group: the Mobius split differences a
whole stack and takes one gather per sub-scope shape (not per subset),
:func:`is_normalized` takes one masked max (and remembers the answer), null
filtering and :func:`restrict` are masks over the rows.  Rows that land on
one scope are summed in a fixed order: by rank, which for a potential's own
tables is their table order (the sorted order of scopes), the lowest-ranked
row starting the sum.  A table-by-table loop adds in that same order (table
order, then subset order), so results do not depend on the grouping, bit
for bit.

Table layout is normative for file serialization: entries are dense in
assignment-major order with the last scope variable fastest, i.e. the
C-order raveling of an array whose axes follow the sorted scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import STATE_LIMIT, InvalidInputError, NotNormalizedError, ResourceLimitError
from .graphs import Graph, VarSet, Variables, _require_subset, _require_tolerance, varset

# A table is treated as identically zero iff its max-abs entry is below
# NULL_TOL; log-sum computations make exact zeros unattainable, and this
# threshold separates true cancellation from rounding at desk scale.  The
# entry points refuse a null_tol that is NaN, infinite or negative.
NULL_TOL = 1e-9

# Tolerance for the exact structural zeroes required of normalized tables.
NORMALIZED_TOL = 1e-12


def max_abs(values: np.ndarray) -> float:
    """Largest absolute entry (0 for an empty array); NaN if any entry is
    NaN, so the result is finite exactly when every entry is."""
    return float(np.abs(values).max(initial=0.0))


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _distinct(keys: np.ndarray, order=None) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first of each distinct entry (row, if 2-d) of
    ``keys`` in ``order``, a sort of them, and which of those each entry
    equals.  By default ``order`` is one stable sort with rows compared as
    raw bytes, far cheaper than ``np.unique``, above all than
    ``np.unique(axis=0)``; 1-d keys come out ascending."""
    if len(keys) == 1:
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    if keys.ndim == 2:
        keys = np.ascontiguousarray(keys).view(
            np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    if order is None:
        order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    which = np.empty(len(keys), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    return order[new], which


def _scope_rows(scopes: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct rows of the (B, r) ``scopes`` arrays, padded with -1 to
    the widest, lexicographic with a prefix first and column-major, and for
    each array the row each of its scopes equals: one lexsort."""
    ends = list(accumulate(map(len, scopes), initial=0))
    padded = np.full((ends[-1], max([1] + [s.shape[1] for s in scopes])), -1, dtype=np.intp)
    for s, start in zip(scopes, ends):
        padded[start:start + len(s), :s.shape[1]] = s
    first, which = _distinct(padded, np.lexsort(padded.T[::-1]))
    return np.asfortranarray(padded[first]), [which[s:e] for s, e in zip(ends, ends[1:])]


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

    @classmethod
    def _view(cls, scope: VarSet, values: np.ndarray, peak: float) -> "InteractionTable":
        """A table over a row of a potential's stack, which is checked already."""
        t = object.__new__(cls)
        t.__dict__.update(scope=scope, values=values, max_abs=peak)
        return t

    def ravel(self) -> list[float]:
        """Entries in the normative serialization order."""
        return [float(x) for x in self.values.ravel(order="C")]


class _Group:
    """Like-shaped tables: ``zp`` holds the anchor position on each axis,
    ``scopes`` the (B, r) scopes in lexicographic order, ``values`` the
    (B, *shape) read-only stack and ``max_abs`` the max-abs entry of each
    row."""

    __slots__ = ("zp", "scopes", "values", "max_abs")

    def __init__(self, zp: tuple[int, ...], scopes, values: np.ndarray, peak=None):
        self.zp = zp
        self.scopes = _readonly(scopes, np.intp)
        self.values = _readonly(values)
        self.max_abs = (np.abs(self.values).reshape(len(self.values), -1).max(axis=1)
                        if peak is None else peak)

    def take(self, keep: np.ndarray) -> "_Group":
        """The rows where the boolean ``keep`` holds."""
        if keep.all():
            return self
        return _Group(self.zp, self.scopes[keep], self.values[keep], self.max_abs[keep])


class Potential:
    """A set of interaction tables over a shared variable registry.

    At most one table per scope; the empty scope is excluded (its constant
    is absorbed by the density's normalizing constant).  The tables are
    stored as groups of like-shaped ones (see the module docstring).
    """

    __slots__ = ("vars", "_groups", "_index", "_normalized")

    def __init__(self, vars: Variables, tables: Iterable[InteractionTable] = ()):
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
        zero = vars.zero_indices
        like: dict[tuple, list[InteractionTable]] = {}
        for s in sorted(seen):
            like.setdefault((seen[s].values.shape, tuple([zero[v] for v in s])), []).append(seen[s])
        self._init(vars, [_Group(zp, [t.scope for t in ts], np.stack([t.values for t in ts]))
                          for (_, zp), ts in like.items()])

    def _init(self, vars: Variables, groups: Iterable[_Group], normalized=None) -> None:
        self.vars = vars
        self._groups = tuple(g for g in groups if len(g.scopes))
        self._index = None
        self._normalized = normalized

    @classmethod
    def _of(cls, vars: Variables, groups: Iterable[_Group], normalized=None) -> "Potential":
        """A potential of groups the engine built: not re-validated."""
        u = object.__new__(cls)
        u._init(vars, groups, normalized)
        return u

    @classmethod
    def _from_parts(cls, vars: Variables, parts, null_tol: float) -> "Potential":
        """A potential of engine-made parts (see :func:`_sum_parts`), one
        scope per row, dropping the rows null within ``null_tol``."""
        groups = []
        for zp, scopes, values, _ in parts:
            g = _Group(zp, scopes, values)
            finite = np.isfinite(g.max_abs)
            if not finite.all():
                bad = tuple(g.scopes[~finite][0].tolist())
                raise InvalidInputError(f"non-finite entries in table for scope {bad}")
            groups.append(g.take(g.max_abs > null_tol))
        return cls._of(vars, groups)

    @classmethod
    def from_arrays(cls, vars: Variables, arrays: dict) -> "Potential":
        return cls(vars, (InteractionTable(varset(s), np.asarray(v, dtype=float))
                          for s, v in arrays.items()))

    def _rows(self) -> dict[VarSet, tuple[_Group, int]]:
        """Where each scope's table sits: its group and row."""
        if self._index is None:
            self._index = {s: (g, k) for g in self._groups
                           for k, s in enumerate(map(tuple, g.scopes.tolist()))}
        return self._index

    def _parts(self, rank=None) -> list:
        """The groups as (zp, scopes, values, rank) parts.  Every row gets
        ``rank``, or by default its position in table order."""
        if rank is None:
            ranks = _scope_rows([g.scopes for g in self._groups])[1]
        else:
            ranks = [np.full(len(g.scopes), rank) for g in self._groups]
        return [(g.zp, g.scopes, g.values, r) for g, r in zip(self._groups, ranks)]

    @property
    def tables(self) -> tuple[InteractionTable, ...]:
        """The tables in scope order, as read-only views built on each access."""
        return tuple(InteractionTable._view(s, g.values[k], float(g.max_abs[k]))
                     for s, (g, k) in sorted(self._rows().items()))

    def scopes(self) -> list[VarSet]:
        return sorted(self._rows())

    def table_for(self, scope) -> InteractionTable | None:
        scope = varset(scope)
        hit = self._rows().get(scope)
        if hit is None:
            return None
        g, k = hit
        return InteractionTable._view(scope, g.values[k], float(g.max_abs[k]))

    def __len__(self) -> int:
        return sum(len(g.scopes) for g in self._groups)

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
    """A set of variable subsets, iterated in lexicographic order.

    Only the set is kept; ``edges`` (and iteration) sort it on each access.
    Hyperedges must be non-empty unless the caller explicitly permits the
    empty set (used to record empty component boundaries).
    """

    __slots__ = ("_set",)

    def __init__(self, edges: Iterable[Iterable[int]] = (), allow_empty: bool = False):
        self._set = frozenset(varset(e) for e in edges)
        if not allow_empty and () in self._set:
            raise InvalidInputError("empty hyperedge not permitted here")

    @classmethod
    def _of(cls, canon: Iterable[VarSet]) -> "Hypergraph":
        """Hypergraph of variable sets that are canonical already."""
        h = object.__new__(cls)
        h._set = frozenset(canon)
        return h

    @property
    def edges(self) -> tuple[VarSet, ...]:
        return tuple(sorted(self._set))

    def __iter__(self) -> Iterator[VarSet]:
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self._set)

    def __contains__(self, e) -> bool:
        return varset(e) in self._set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return f"Hypergraph({[set(e) or set() for e in self.edges]!r})"

    @property
    def has_empty(self) -> bool:
        return () in self._set

    def restrict(self, a) -> "Hypergraph":
        """Hyperedges that are subsets of ``a``."""
        a = set(varset(a))
        return Hypergraph._of(e for e in self._set if a.issuperset(e))

    def union(self, other: "Hypergraph") -> "Hypergraph":
        return Hypergraph._of(self._set | other._set)

    def difference(self, other: "Hypergraph") -> "Hypergraph":
        return Hypergraph._of(self._set - other._set)


# ---------------------------------------------------------------------------
# Ordered sums of rows, and the anchored Mobius transform.
# ---------------------------------------------------------------------------

def _anchored_parts(vars: Variables, scopes: np.ndarray, values: np.ndarray,
                    rank: np.ndarray) -> list:
    """Rows of like-sized scopes as (zp, scopes, values, rank) parts, one
    per distinct anchor positions."""
    zps = np.asarray(vars.zero_indices)[scopes]
    if (zps == zps[0]).all():
        return [(tuple(zps[0].tolist()), scopes, values, rank)]
    rows: dict[tuple, list[int]] = {}
    for k, zp in enumerate(map(tuple, zps.tolist())):
        rows.setdefault(zp, []).append(k)
    return [(zp, scopes[ks], values[ks], rank[ks]) for zp, ks in rows.items()]


def _sum_parts(parts) -> list:
    """Sum the rows that share a scope, in rank order.

    A part is (zp, scopes, values, rank): anchor positions, a (B, r) scope
    array, a (B, *shape) stack and a (B,) rank per row.  The lowest-ranked
    row starts each sum, so a -0.0 of a lone row stays -0.0 (folds hold
    none: see :func:`~margraph.hypergraph_marginal._fold_stack`), and the
    others add on one at a time.  Returns parts again: one row per scope,
    scopes in lexicographic order within a part, each row ranked by its
    first term.  A lone part in that order comes back uncopied.
    """
    like: dict[tuple, list] = {}
    for zp, scopes, values, rank in parts:
        if len(rank):
            like.setdefault((values.shape[1:], zp), []).append((scopes, values, rank))
    out = []
    for (_, zp), items in like.items():
        scopes, values, rank = (np.concatenate(x) if len(x) > 1 else x[0] for x in zip(*items))
        order = np.lexsort((rank, *scopes.T[::-1]))
        if (order[1:] < order[:-1]).any():  # rows in order are not copied
            scopes, values, rank = scopes[order], values[order], rank[order]
        start = np.ones(len(rank), dtype=bool)
        start[1:] = (scopes[1:] != scopes[:-1]).any(axis=1)
        heads = np.flatnonzero(start)
        total = values[heads] if len(heads) < len(rank) else values
        if len(heads) < len(rank):
            seg = np.cumsum(start) - 1
            pos = np.arange(len(rank)) - heads[seg]
            for j in range(1, int(pos.max()) + 1):
                at = np.flatnonzero(pos == j)
                total[seg[at]] += values[at]
        out.append((zp, scopes[heads], total, rank[heads]))
    return out


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


# Split plans of at most this many entries are cached, 32 at most (16 MiB of
# indices); larger ones are built on each call.
SPLIT_PLAN_CACHE_ENTRIES = 1 << 16


@lru_cache(maxsize=32)
def _split_plan(shape: tuple[int, ...], zero_positions: tuple[int, ...]) -> tuple:
    """Where the pieces on the sub-scopes of a table sit in its transform:
    per (sub-shape, sub-anchors), the sub-scopes' ``axes`` (one row each, in
    subset order) and ``idx``, the flat position of every piece entry, shaped
    (sub-scopes, *sub-shape).  Entries with a coordinate at the anchor point
    one past the end of the table, where the caller puts a zero."""
    like: dict[tuple, list] = {}
    for k in range(1, len(shape) + 1):
        for sub in combinations(range(len(shape)), k):
            like.setdefault((tuple(shape[ax] for ax in sub),
                             tuple(zero_positions[ax] for ax in sub)), []).append(sub)
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    anchor = int(np.dot(zero_positions, strides))
    plan = []
    for (sub_shape, sub_zp), subs in like.items():
        axes = np.array(subs, dtype=np.intp)
        # each piece entry's offset from the anchor along the sub-scope axes
        off = np.indices(sub_shape).reshape(len(sub_shape), -1) - np.array(sub_zp)[:, None]
        idx = anchor + strides[axes] @ off
        idx[:, (off == 0).any(axis=0)] = math.prod(shape)
        plan.append((sub_zp, _readonly(axes, np.intp),
                     _readonly(idx.reshape((len(subs),) + sub_shape), np.intp)))
    return tuple(plan)


def _split(parts) -> list:
    """Split every row of the (zp, scopes, values, rank) ``parts`` into its
    normalized pieces on each non-empty subset of its scope (the constant
    piece is dropped) and sum the pieces per sub-scope by the rank of their
    row (:func:`_sum_parts`).

    Each part takes one transform and then one gather per group of
    sub-scopes that share a sub-shape and sub-anchors (:func:`_split_plan`),
    which yields one part.  The pieces of a lone row need no sum: each
    group's sub-scopes are distinct and come in lexicographic order.
    """
    pieces = []
    for zp, scopes, values, rank in parts:
        shape = values.shape[1:]
        small = math.prod(n + 1 for n in shape) - 1 <= SPLIT_PLAN_CACHE_ENTRIES
        flat = np.zeros((len(values), math.prod(shape) + 1))  # the last column is the zero
        flat[:, :-1] = _anchored_differences(values, zp).reshape(len(values), -1)
        for sub_zp, axes, idx in (_split_plan if small else _split_plan.__wrapped__)(shape, zp):
            pieces.append((sub_zp, scopes[:, axes].reshape(-1, axes.shape[1]),
                           flat[:, idx].reshape((-1,) + idx.shape[1:]), np.repeat(rank, len(axes))))
    return pieces if len(parts) == 1 and len(parts[0][3]) == 1 else _sum_parts(pieces)


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
    from different tables accumulate in table order.  Tables that end up
    identically zero (max-abs below ``null_tol``) are dropped.  The result
    induces the same density as the input up to one multiplicative constant.
    A table over d splits into prod(|dom v| + 1) - 1 entries; more than
    ``STATE_LIMIT`` is refused before anything is allocated.
    """
    _require_tolerance(null_tol, "null_tol")
    entries = max((math.prod(n + 1 for n in g.values.shape[1:]) - 1 for g in u0._groups),
                  default=0)
    if entries > STATE_LIMIT:
        raise ResourceLimitError(
            f"normalization needs {entries} table entries, above the limit of {STATE_LIMIT}")
    return Potential._from_parts(u0.vars, _split(u0._parts()), null_tol)


def is_normalized(u: Potential, tol: float = NORMALIZED_TOL) -> bool:
    """True iff every entry at an assignment with some coordinate 0 is 0 (within ``tol``).

    One max per group and axis, over the slice at the anchor.  Potentials
    are immutable, so the answer at the default ``tol`` is computed once and
    remembered.
    """
    if tol == NORMALIZED_TOL and u._normalized is not None:
        return u._normalized
    ok = all(max_abs(g.values.take(z, axis=ax)) <= tol
             for g in u._groups for ax, z in enumerate(g.zp, start=1))
    if tol == NORMALIZED_TOL:
        u._normalized = ok
    return ok


def require_normalized(u: Potential, tol: float = NORMALIZED_TOL) -> None:
    if not is_normalized(u, tol):
        raise NotNormalizedError(
            "potential is not normalized; call normalize_potential first")


def _subset_of(u: Potential, keep) -> Potential:
    """The rows of ``u`` where ``keep(group)`` holds; a subset of a
    normalized potential is normalized."""
    return Potential._of(u.vars, (g.take(keep(g)) for g in u._groups), u._normalized or None)


def _drop_null(u: Potential, null_tol: float = NULL_TOL) -> Potential:
    """``u`` without its tables that are null within ``null_tol``."""
    return _subset_of(u, lambda g: g.max_abs > null_tol)


def restrict(u: Potential, a) -> Potential:
    """Keep exactly the tables whose scope is contained in ``a``."""
    a = _require_subset(a, range(len(u.vars)), "registry")
    inside = np.zeros(len(u.vars), dtype=bool)
    inside[list(a)] = True
    return _subset_of(u, lambda g: inside[g.scopes].all(axis=1))


def hypergraph_of(fam, null_tol: float = NULL_TOL) -> Hypergraph:
    """Scopes carrying a non-null table in at least one family member.

    Accepts a :class:`PotentialFamily`, a single :class:`Potential`, or an
    iterable of potentials.  Members are expected to be normalized already.
    """
    _require_tolerance(null_tol, "null_tol")
    members = (fam,) if isinstance(fam, Potential) else fam  # a family iterates its members
    return Hypergraph._of(chain.from_iterable(
        map(tuple, g.scopes[g.max_abs > null_tol].tolist()) for m in members for g in m._groups))


def induced_graph(h: Hypergraph, vars_ids) -> Graph:
    """Graph on ``vars_ids`` joining every pair that shares a hyperedge."""
    vs = varset(vars_ids)
    inside = set(vs)
    if not inside.issuperset(chain.from_iterable(h._set)):
        e = min(e for e in h._set if not inside.issuperset(e))
        raise InvalidInputError(f"hyperedge {set(e)} not contained in the vertex set")
    return Graph._of(vs, frozenset(chain.from_iterable(combinations(e, 2) for e in h._set)))


def precedes(h1: Hypergraph, h2: Hypergraph) -> bool:
    """True iff every element of ``h1`` is contained in some element of ``h2``."""
    bigger = [set(e) for e in h2]
    return all(any(set(e1) <= e2 for e2 in bigger) for e1 in h1)
