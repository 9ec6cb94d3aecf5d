"""Connectivity components, the components and boundaries of an eliminated
set, and a bandwidth-reducing order of an edge list, for the routes that use
numpy.

The graph operator keeps its edge pass (:func:`margraph.graphs._edge_pass`),
a search in plain Python, so that a process which only marginalizes graphs
never imports numpy.
"""

from __future__ import annotations

import numpy as np


def adjacency(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, cols)``: vertex i of the undirected graph on 0..n-1 with the
    edges (u[k], v[k]) has neighbours ``cols[starts[i]:starts[i + 1]]``, i too."""
    loops = np.arange(n)
    rows = np.concatenate((u, v, loops))
    by_row = np.argsort(rows, kind="stable")
    cols = np.concatenate((v, u, loops))[by_row]
    return np.searchsorted(rows[by_row], np.arange(n + 1)), cols


def component_labels(adj: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The smallest member of the connectivity component of each vertex of
    an :func:`adjacency`.

    Every vertex first points at its smallest neighbour.  Pointer jumping
    turns that forest into root labels, and while trees remain, every
    vertex takes the smallest label in its neighbourhood and jumps again.
    Labels only decrease and settle on the smallest member of each
    component.
    """
    starts, cols = adj
    starts = starts[:-1]  # every row holds its loop
    label = np.minimum.reduceat(cols, starts)
    while True:
        jumped = label[label]
        if (jumped != label).any():
            label = jumped
            continue
        if not label.any():  # one tree, rooted at 0, spans everything
            return label
        smallest = np.minimum.reduceat(label[cols], starts)
        if not (smallest != label).any():
            return label
        label = smallest


def eliminated_components(n: int, u: np.ndarray, v: np.ndarray, eliminated: np.ndarray) -> tuple:
    """The connectivity components of the ``eliminated`` vertices of the graph
    on 0..n-1 with the edges (u[k], v[k]), loops and repeats allowed: each
    vertex's component index (-1 where kept), components ordered by smallest
    member; the eliminated ids grouped by component, ascending within it;
    each component's size; and the ascending (component, boundary id) pairs
    of the edges with one end eliminated.  Eliminating a component completes
    its boundary (Rose, Tarjan & Lueker 1976), which every route then reads."""
    z = np.flatnonzero(eliminated)
    at = np.full(n, -1)  # position in z
    at[z] = np.arange(len(z))
    pu, pv = at[u], at[v]
    inner = (pu >= 0) & (pv >= 0)
    label = component_labels(adjacency(len(z), pu[inner], pv[inner]))
    roots = np.flatnonzero(label == np.arange(len(z)))
    index = np.searchsorted(roots, label)  # the component of each vertex of z
    comp = np.full(n, -1)
    comp[z] = index
    cu, cv = comp[u], comp[v]
    # an edge with one end kept: the other end's component (the kept end's is -1), the kept end
    key = ((cu + cv + 1) * n + np.where(cu < 0, u, v))[(cu < 0) != (cv < 0)]
    key.sort()
    fresh = np.ones(len(key), dtype=bool)  # a sort and a compare: np.unique would load numpy.ma
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    members = z[np.argsort(index, kind="stable")]
    return comp, members, np.bincount(index, minlength=len(roots)), divmod(key[fresh], n)


def reverse_cuthill_mckee(adj: tuple[np.ndarray, np.ndarray], label: np.ndarray,
                          roots: np.ndarray) -> np.ndarray:
    """The members of the components labelled ``roots``, by label, each in
    reverse Cuthill-McKee order from its member of least degree and id.
    All components advance one breadth-first level at a time; a level's new
    vertices are ordered by the rank of their first parent, degree and id,
    as a queue would take them."""
    starts, cols = adj
    n, degree = len(label), np.diff(starts)
    seen = ~np.isin(label, roots)
    big = (n + 1) * n * n  # above every key below
    least = np.full(n, big)  # degree * n + id of each component's start
    np.minimum.at(least, label[~seen], (degree * n + np.arange(n))[~seen])
    levels, claim = [least[roots] % n], np.full(n, big)
    while True:
        frontier, count = levels[-1], degree[levels[-1]]
        seen[frontier] = True
        reach = np.repeat(starts[frontier] - np.cumsum(count) + count, count)
        reach += np.arange(len(reach))  # the rows of the frontier, end to end
        fresh = ~seen[cols[reach]]
        if not fresh.any():
            order = np.concatenate(levels)[::-1]
            return order[np.argsort(label[order], kind="stable")]
        # (parent's rank, degree, id) as one key; a vertex keeps its first parent's
        new = cols[reach[fresh]]
        key = (np.repeat(np.arange(len(frontier)) * (n + 1), count)[fresh] + degree[new]) * n + new
        np.minimum.at(claim, new, key)
        levels.append(np.sort(key[claim[new] == key]) % n)
