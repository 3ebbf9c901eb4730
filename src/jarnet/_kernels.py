"""Hot graph kernels over CSR arrays.

``bfs_stats`` is plain numpy: a bit-parallel multi-source BFS (Then et
al., "The More the Merrier", VLDB 2014) whose results are integer sums,
so they do not depend on how sources are batched. ``brandes`` and
``triangle_doubles`` are compiled with numba when available; otherwise
they run as pure Python. Both paths execute identical operation
sequences, so results match bit-for-bit, and every float accumulation is
sequential, so thread counts never change results.
"""
from __future__ import annotations

import numpy as np

try:
    from numba import njit
    from numba import get_num_threads, set_num_threads

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without the extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap

    def get_num_threads() -> int:
        return 1

    def set_num_threads(_n: int) -> None:
        return None


class thread_limit:
    """Clamp the numba thread pool for the duration of a block."""

    def __init__(self, threads: int | None):
        self.threads = threads
        self._saved = None

    def __enter__(self):
        if HAVE_NUMBA and self.threads is not None and self.threads >= 1:
            self._saved = get_num_threads()
            set_num_threads(min(self.threads, self._saved))
        return self

    def __exit__(self, *exc):
        if self._saved is not None:
            set_num_threads(self._saved)
        return False


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


@njit(cache=True)
def brandes(indptr, indices, rindptr, rindices):
    """Raw betweenness: BFS path counts + reverse dependency accumulation.

    Predecessors are recovered from the reverse adjacency via the level
    test dist[v] == dist[w] - 1, so no per-node predecessor lists are
    stored. Endpoints are excluded. Sequential over sources on purpose:
    the accumulation order is part of the determinism contract.
    """
    n = indptr.shape[0] - 1
    bc = np.zeros(n, np.float64)
    dist = np.empty(n, np.int64)
    sigma = np.empty(n, np.float64)
    delta = np.empty(n, np.float64)
    order = np.empty(n, np.int64)
    for s in range(n):
        for i in range(n):
            dist[i] = -1
            sigma[i] = 0.0
            delta[i] = 0.0
        head = 0
        tail = 0
        order[tail] = s
        tail += 1
        dist[s] = 0
        sigma[s] = 1.0
        while head < tail:
            u = order[head]
            head += 1
            du = dist[u]
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if dist[v] < 0:
                    dist[v] = du + 1
                    order[tail] = v
                    tail += 1
                if dist[v] == du + 1:
                    sigma[v] += sigma[u]
        for i in range(tail - 1, 0, -1):
            w = order[i]
            coeff = (1.0 + delta[w]) / sigma[w]
            dw = dist[w]
            for k in range(rindptr[w], rindptr[w + 1]):
                v = rindices[k]
                if dist[v] == dw - 1:
                    delta[v] += sigma[v] * coeff
            bc[w] += delta[w]
    return bc


@njit(cache=True)
def triangle_doubles(indptr, indices):
    """2x the triangle count through each vertex (sorted symmetric CSR)."""
    n = indptr.shape[0] - 1
    tri = np.zeros(n, np.int64)
    for v in range(n):
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            i = indptr[v]
            j = indptr[u]
            i_end = indptr[v + 1]
            j_end = indptr[u + 1]
            common = np.int64(0)
            while i < i_end and j < j_end:
                a = indices[i]
                b = indices[j]
                if a == b:
                    common += 1
                    i += 1
                    j += 1
                elif a < b:
                    i += 1
                else:
                    j += 1
            tri[v] += common
    return tri
