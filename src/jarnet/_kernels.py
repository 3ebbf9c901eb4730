"""Graph kernels over CSR arrays, all plain numpy.

Every kernel takes ``indptr``/``indices`` with sorted neighbour lists and
returns integer results, or float64 results whose bits never depend on
how the work is batched.

- ``bfs_stats``: bit-parallel multi-source BFS (Then et al., "The More
  the Merrier", VLDB 2014). Its results are integer sums and maxima.
- ``brandes``: Brandes betweenness (J. Math. Sociol. 2001), sources in
  order, ``max(1, BATCH_ENTRIES // n)`` at a time, as flat arrays keyed
  ``j * n + v`` for the batch's j-th source. The result is bit-identical
  to a one-source-at-a-time scalar loop, because every float addition
  happens in that loop's order:

  * path counts (sigma) of the vertices a level reaches come from a
    ``bincount``, which adds in input order, over candidates listed in
    frontier (queue) order and then successor order;
  * dependencies (delta) go level by level from the deepest, each level's
    frontier in *descending* queue position and then predecessor order,
    through ``np.add.at``, which applies its updates one by one in index
    order. Any other order (the frontier not reversed, or a pairwise
    reduction) changes the last bits;
  * each source's own delta is zeroed, and the batch's delta rows are
    added to the scores in source order.
- ``triangle_doubles``: degree-ordered wedge enumeration; integers.
- ``component_labels``: min-label propagation over a frontier; integers.
"""
from __future__ import annotations

import numpy as np


def _ranges(starts, counts):
    """Concatenated ``arange(s, s + c)`` for each start and count."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _neighbours(indptr, rows):
    """CSR positions of the neighbours of ``rows``, row by row, and the
    number of neighbours of each row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    return _ranges(starts, counts), counts


# Sources per bit-parallel BFS batch: eight uint64 words per vertex.
BATCH_SOURCES = 512

_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], np.uint8)


def bfs_stats(indptr, indices, sources):
    """Distance sum, reached pairs and diameter of a BFS from each source.

    ``indptr``/``indices`` hold each vertex's predecessors, so a vertex is
    reached at the next level from the frontier bits of its in-neighbors.
    Sources run in batches of ``BATCH_SOURCES``, one bit each in an
    ``(n, words)`` uint64 bitset; a level is one gather over the edges and
    one OR-reduction per vertex. Pairs exclude the source itself. All
    three results are integer sums or maxima, so the batch width never
    changes them.
    """
    n = indptr.shape[0] - 1
    sources = np.asarray(sources, np.int64)
    # reduceat gives garbage for empty segments: keep rows with predecessors.
    rows = np.flatnonzero(np.diff(indptr))
    starts = indptr[rows]
    total = pairs = diameter = 0
    if rows.size == 0:
        return total, pairs, diameter
    for lo in range(0, sources.shape[0], BATCH_SOURCES):
        batch = sources[lo:lo + BATCH_SOURCES]
        bit = np.arange(batch.shape[0])
        frontier = np.zeros((n, (batch.shape[0] + 63) // 64), np.uint64)
        np.bitwise_or.at(frontier, (batch, bit >> 6),
                         np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)))
        visited = frontier.copy()
        level = 0
        while True:
            reached = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            reached &= ~visited[rows]
            count = int(_POPCOUNT[reached.view(np.uint8)].sum(dtype=np.int64))
            if count == 0:
                break
            level += 1
            total += level * count
            pairs += count
            visited[rows] |= reached
            frontier = np.zeros_like(visited)
            frontier[rows] = reached
        diameter = max(diameter, level)
    return total, pairs, diameter


# Entries (sources x vertices) per Brandes batch.
BATCH_ENTRIES = 1 << 16


def brandes(indptr, indices, rindptr, rindices):
    """Raw betweenness: BFS path counts + reverse dependency accumulation.

    ``indptr``/``indices`` hold successors and ``rindptr``/``rindices``
    predecessors. Predecessors on shortest paths are recovered by the
    level test dist[v] == dist[w] - 1, so no per-vertex lists are stored.
    Endpoints are excluded. See the module docstring for the order
    contract that makes the result independent of the batch size.
    """
    n = indptr.shape[0] - 1
    bc = np.zeros(n, np.float64)
    per = max(1, BATCH_ENTRIES // max(n, 1))
    for lo in range(0, n, per):
        sources = np.arange(lo, min(lo + per, n), dtype=np.int64)
        b = sources.shape[0]
        roots = np.arange(b, dtype=np.int64) * n + sources
        dist = np.full(b * n, -1, np.int32)
        sigma = np.zeros(b * n, np.float64)
        delta = np.zeros(b * n, np.float64)
        dist[roots] = 0
        sigma[roots] = 1.0
        levels = [roots]
        while True:
            frontier = levels[-1]
            u = frontier % n
            pos, counts = _neighbours(indptr, u)
            cand = np.repeat(frontier - u, counts) + indices[pos]
            fresh = dist[cand] < 0
            if not fresh.any():
                break
            cand = cand[fresh]
            parent = np.repeat(frontier, counts)[fresh]
            reached, first, inverse = np.unique(
                cand, return_index=True, return_inverse=True)
            sigma[reached] = np.bincount(inverse, weights=sigma[parent])
            dist[reached] = len(levels)
            levels.append(reached[np.argsort(first)])
        for depth in range(len(levels) - 1, 0, -1):
            w = levels[depth][::-1]
            coeff = (1.0 + delta[w]) / sigma[w]
            wv = w % n
            pos, counts = _neighbours(rindptr, wv)
            v = np.repeat(w - wv, counts) + rindices[pos]
            on_path = dist[v] == depth - 1
            v = v[on_path]
            np.add.at(delta, v, sigma[v] * np.repeat(coeff, counts)[on_path])
        delta[roots] = 0.0
        for row in delta.reshape(b, n):
            bc += row
    return bc


def triangle_doubles(indptr, indices):
    """2x the triangle count through each vertex (sorted symmetric CSR
    without self-loops).

    Each edge points toward the endpoint of higher (degree, id) rank, so
    every triangle is one wedge u -> v, u -> w with rank v < rank w, closed
    by the edge v -> w. Those wedges are found once each among the
    out-edges of u, and each triangle adds 2 to its three vertices.
    """
    n = indptr.shape[0] - 1
    deg = np.diff(indptr)
    rank = deg * n + np.arange(n)
    src = np.repeat(np.arange(n), deg)
    up = rank[src] < rank[indices]
    lo, hi = src[up], indices[up]
    order = np.lexsort((rank[hi], lo))
    lo, hi = lo[order], hi[order]
    # Edge e = (u, v) pairs with each later out-edge (u, w) of u.
    row_end = np.searchsorted(lo, lo, side="right")
    edge = np.arange(lo.shape[0])
    later = row_end - edge - 1
    first = np.repeat(edge, later)
    second = _ranges(edge + 1, later)
    v, w = hi[first], hi[second]
    closed = np.isin(v * n + w, lo * n + hi)
    corners = np.concatenate((lo[first][closed], v[closed], w[closed]))
    return 2 * np.bincount(corners, minlength=n)


def component_labels(indptr, indices):
    """Connected components of a symmetric CSR, labelled densely in the
    order of each component's smallest vertex.

    Every vertex starts as its own root; each round, the vertices whose
    root dropped pass it to their neighbours, until no root changes.
    """
    n = indptr.shape[0] - 1
    root = np.arange(n)
    frontier = np.flatnonzero(np.diff(indptr))
    while frontier.size:
        pos, counts = _neighbours(indptr, frontier)
        nbr = indices[pos]
        before = root[nbr]
        np.minimum.at(root, nbr, np.repeat(root[frontier], counts))
        frontier = np.unique(nbr[root[nbr] < before])
    return np.unique(root, return_inverse=True)[1]
