"""Connectivity components of an edge list, for the routes that use numpy.

The graph operator keeps :func:`margraph.graphs.connectivity_components`, a
search in plain Python, so that a process which only marginalizes graphs
never imports numpy.
"""

from __future__ import annotations

import numpy as np


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest member of the connectivity component of each vertex
    0..n-1 of the undirected graph with an edge (u[k], v[k]) for every k.

    The edges, taken both ways and with a loop at every vertex, are sorted
    into rows (CSR).  Every vertex first points at its smallest neighbour.
    Pointer jumping turns that forest into root labels, and while trees
    remain, every vertex takes the smallest label in its neighbourhood and
    jumps again.  Labels only decrease and settle on the smallest member of
    each component.
    """
    loops = np.arange(n)
    rows = np.concatenate((u, v, loops))
    by_row = np.argsort(rows, kind="stable")
    cols = np.concatenate((v, u, loops))[by_row]
    starts = np.searchsorted(rows[by_row], loops)  # every row holds its loop
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
