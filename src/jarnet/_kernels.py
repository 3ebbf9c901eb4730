"""Graph kernels over CSR arrays, all plain numpy.

Every kernel takes ``indptr``/``indices`` with sorted neighbour lists and
returns integer results, or float64 results whose bits never depend on
how the work is batched. Work whose result is already known is skipped,
never approximated.

- ``bfs_stats``: bit-parallel multi-source BFS (Then et al., "The More
  the Merrier", VLDB 2014). Its results are integer sums and maxima, so
  what it skips only has to leave those integers unchanged:

  * a source that is no vertex's predecessor reaches nothing; it adds 0
    to the sums and level 0 to the diameter, so it is not run;
  * a vertex whose visited bits hold the whole batch can gain no more
    bits; once such rows are 30% of those gathered, the gather is rebuilt
    over the rest;
  * leaves folded onto a source by the caller (``leaves``, after
    Sariyüce et al., "Graph Manipulations for Fast Centrality
    Computation", ACM TKDD 2017) are counted from their neighbour's BFS
    instead of running their own. For a leaf v of a vertex u of degree
    >= 2 in a symmetric CSR, ``pairs_v = pairs_u``,
    ``total_v = total_u + pairs_u - 1`` and ``ecc_v = ecc_u + 1``.
- ``brandes``: Brandes betweenness (J. Math. Sociol. 2001) of the sources
  with successors, in order, ``max(1, BATCH_ENTRIES // n)`` at a time, as
  flat arrays keyed ``j * n + v`` for the batch's j-th source. A source
  without successors has an all-zero delta row, and adding +0.0 changes
  no bit, so it is skipped. The result is bit-identical to a
  one-source-at-a-time scalar loop, because every float addition happens
  in that loop's order:

  * each level lists the vertices it reaches in discovery (queue) order:
    first-touch marking keeps each candidate's first appearance among
    the candidates, which come in frontier order and then successor
    order. Then ``mark`` holds each reached vertex's queue position. The
    mark of every candidate is reset before each level, so no mark from
    an earlier level or batch survives;
  * path counts (sigma) of those vertices come from a ``bincount``, which
    adds in input order, over the candidates in that same order. A
    reached vertex has sigma >= 1 and any other has 0, so sigma is the
    reached mark;
  * dependencies (delta) go level by level from the deepest, over the
    shortest-path edges (parent, child) the forward pass kept for that
    level, sorted by *descending* queue position of the child. One
    ``np.add.at`` per level applies the updates one by one in index
    order, so each parent receives its additions in the scalar loop's
    order. Keys tie only for the same child, whose parents are different
    accumulators, so the order of ties changes no bit. Any other order
    (a level unsorted or ascending, or a pairwise reduction) changes the
    last bits;
  * each source's own delta is zeroed, and the batch's delta rows are
    added to the scores in source order.

  Its three working arrays, ``mark``, sigma and delta, are allocated once
  for ``max(1, BATCH_ENTRIES // n)`` sources and live for the whole call;
  sigma and delta are zeroed before each batch.
- ``triangle_doubles``: degree-ordered wedge enumeration; integers.
- ``component_labels``: min-label propagation over a frontier; integers.
"""
from __future__ import annotations

from ._lazy import np


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

# A batch's gather is rebuilt over its open rows once they fall below
# this share of the rows it gathers.
LIVE_SHARE = 0.7


def _bits(positions, words):
    """A ``words``-word uint64 bitset with the given bit positions set."""
    out = np.zeros(words, np.uint64)
    np.bitwise_or.at(out, positions >> 6,
                     np.left_shift(np.uint64(1), (positions & 63).astype(np.uint64)))
    return out


def _popcount(words) -> int:
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def _bfs_batch(indptr, indices, rows, batch, leaves):
    """``(total, pairs, diameter)`` of the sources of one batch."""
    n = indptr.shape[0] - 1
    words = (batch.shape[0] + 63) // 64
    bit = np.arange(batch.shape[0])
    full = _bits(bit, words)
    # Bit k of a source's leaf count, for every source at once: the
    # leaves reached at a level are sum_k 2^k * popcount(reached & plane_k).
    planes = [_bits(np.flatnonzero(leaves >> k & 1), words)
              for k in range(int(leaves.max(initial=0)).bit_length())]
    anchors = _bits(np.flatnonzero(leaves), words)
    frontier = np.zeros((n, words), np.uint64)
    np.bitwise_or.at(frontier, (batch, bit >> 6),
                     np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)))
    visited = frontier.copy()
    live, nbr, starts = rows, indices, indptr[rows]
    total = pairs = folded = level = far = 0
    while True:
        reached = np.bitwise_or.reduceat(frontier[nbr], starts, axis=0)
        seen = visited[live]
        reached &= ~seen
        count = _popcount(reached)
        if count == 0:
            break
        level += 1
        weighted = sum(_popcount(reached & plane) << k for k, plane in enumerate(planes))
        if planes and (reached & anchors).any():
            far = level + 1
        total += level * (count + weighted)
        pairs += count + weighted
        folded += weighted
        seen |= reached
        visited[live] = seen
        frontier = np.zeros_like(visited)
        frontier[live] = reached
        open_rows = ~(seen == full).all(axis=1)
        if np.count_nonzero(open_rows) < LIVE_SHARE * live.shape[0]:
            live = live[open_rows]
            if live.size == 0:
                break
            pos, counts = _neighbours(indptr, live)
            nbr, starts = indices[pos], np.cumsum(counts) - counts
    # Each folded leaf v of u adds pairs_u - 1 on top of total_u.
    return total + folded - int(leaves.sum()), pairs, max(level, far)


def bfs_stats(indptr, indices, sources, leaves=None):
    """Distance sum, reached pairs and diameter of a BFS from each source.

    ``indptr``/``indices`` hold each vertex's predecessors, so a vertex is
    reached at the next level from the frontier bits of its in-neighbors.
    Sources run in batches of ``BATCH_SOURCES``, one bit each in an
    ``(n, words)`` uint64 bitset; a level is one gather over the edges of
    the rows still open and one OR-reduction per row. Pairs exclude the
    source itself. ``leaves[i]``, if given, is the number of leaves of a
    symmetric CSR folded onto ``sources[i]``: they count as sources
    without being run. All three results are integer sums or maxima, so
    the batch width and the skipped work never change them.
    """
    n = indptr.shape[0] - 1
    sources = np.asarray(sources, np.int64)
    leaves = np.zeros(sources.shape, np.int64) if leaves is None \
        else np.asarray(leaves, np.int64)
    reaches = np.zeros(n, bool)
    reaches[indices] = True
    keep = reaches[sources]
    sources, leaves = sources[keep], leaves[keep]
    # reduceat gives garbage for empty segments: keep rows with predecessors.
    rows = np.flatnonzero(np.diff(indptr))
    total = pairs = diameter = 0
    for lo in range(0, sources.shape[0], BATCH_SOURCES):
        t, p, d = _bfs_batch(indptr, indices, rows, sources[lo:lo + BATCH_SOURCES],
                             leaves[lo:lo + BATCH_SOURCES])
        total += t
        pairs += p
        diameter = max(diameter, d)
    return total, pairs, diameter


# Entries (sources x vertices) per Brandes batch.
BATCH_ENTRIES = 1 << 16


def brandes(indptr, indices):
    """Raw betweenness: BFS path counts + reverse dependency accumulation.

    ``indptr``/``indices`` hold successors. The forward pass keeps each
    level's shortest-path edges (parent, child), and the backward pass
    walks those same edges, so no predecessor rows or distances are
    needed. Endpoints are excluded. See the module docstring for the
    order contract that makes the result independent of the batch size.
    """
    n = indptr.shape[0] - 1
    bc = np.zeros(n, np.float64)
    active = np.flatnonzero(np.diff(indptr))
    per = max(1, BATCH_ENTRIES // max(n, 1))
    # The three working arrays, shared by every level of every batch.
    mark = np.empty(per * n, np.int64)
    sigma = np.empty(per * n, np.float64)
    delta = np.empty(per * n, np.float64)
    for lo in range(0, active.shape[0], per):
        sources = active[lo:lo + per]
        b = sources.shape[0]
        roots = np.arange(b, dtype=np.int64) * n + sources
        sigma.fill(0.0)
        delta.fill(0.0)
        sigma[roots] = 1.0
        frontier = roots
        edges = []
        while True:
            u = frontier % n
            pos, counts = _neighbours(indptr, u)
            cand = np.repeat(frontier - u, counts) + indices[pos]
            fresh = sigma[cand] == 0.0
            if not fresh.any():
                break
            cand = cand[fresh]
            parent = np.repeat(frontier, counts)[fresh]
            k = np.arange(cand.shape[0])
            mark[cand] = cand.shape[0]
            np.minimum.at(mark, cand, k)
            reached = cand[mark[cand] == k]
            mark[reached] = np.arange(reached.shape[0])
            slot = mark[cand]
            sigma[reached] = np.bincount(slot, weights=sigma[parent])
            order = np.argsort(-slot, kind="stable")
            edges.append((parent[order], cand[order]))
            frontier = reached
        for v, w in reversed(edges):
            np.add.at(delta, v, sigma[v] * ((1.0 + delta[w]) / sigma[w]))
        delta[roots] = 0.0
        for row in delta[:b * n].reshape(b, n):
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
    # The sorted edge keys, ended by one above every key, so that each
    # wedge key finds an entry to compare with.
    keys = np.append(np.sort(lo * n + hi), n * n)
    wedge = v * n + w
    closed = keys[np.searchsorted(keys, wedge)] == wedge
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
        dropped = np.zeros(n, bool)
        dropped[nbr[root[nbr] < before]] = True
        frontier = np.flatnonzero(dropped)
    is_root = np.zeros(n, bool)
    is_root[root] = True
    return (np.cumsum(is_root) - 1)[root]
