"""Per-source queue BFS: the path-statistics kernel that the bit-parallel
``jarnet._kernels.bfs_stats`` replaced, kept as a differential oracle.

Unlike the new kernel it walks the successor CSR (``g.to_csr()``) forward
from one source at a time.
"""
from __future__ import annotations

import numpy as np

from jarnet.metrics import PathStats


def bfs_stats(indptr, indices, sources, sums, maxs, cnts):
    """Per-source BFS: distance sum, eccentricity, reached count."""
    n = indptr.shape[0] - 1
    for si in range(sources.shape[0]):
        s = sources[si]
        dist = np.full(n, -1, np.int64)
        queue = np.empty(n, np.int64)
        head = 0
        tail = 0
        queue[tail] = s
        tail += 1
        dist[s] = 0
        total = np.int64(0)
        far = np.int64(0)
        cnt = np.int64(0)
        while head < tail:
            u = queue[head]
            head += 1
            du = dist[u]
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if dist[v] < 0:
                    d = du + 1
                    dist[v] = d
                    queue[tail] = v
                    tail += 1
                    total += d
                    cnt += 1
                    if d > far:
                        far = d
        sums[si] = total
        maxs[si] = far
        cnts[si] = cnt


def path_stats(indptr, indices, sources, exact: bool) -> PathStats:
    """PathStats from the per-source oracle over the successor CSR."""
    k = sources.shape[0]
    sums = np.zeros(k, np.int64)
    maxs = np.zeros(k, np.int64)
    cnts = np.zeros(k, np.int64)
    bfs_stats(indptr, indices, sources, sums, maxs, cnts)
    total = int(sums.sum())
    pairs = int(cnts.sum())
    diameter = int(maxs.max()) if k else 0
    average = total / pairs if pairs else 0.0
    return PathStats(average, diameter, pairs, exact, k)
