"""Scalar kernels over the projection's sorted symmetric CSR, replaced by
numpy versions in ``jarnet`` and kept verbatim as differential oracles:
the merge-based triangle count and the per-component queue BFS.
"""
from __future__ import annotations

import numpy as np


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


def components(indptr, indices):
    """Dense labels in first-seen order, and the size of each component."""
    n = indptr.shape[0] - 1
    labels = np.full(n, -1, np.int64)
    sizes: list[int] = []
    queue = np.empty(n, np.int64)
    for start in range(n):
        if labels[start] >= 0:
            continue
        comp = len(sizes)
        labels[start] = comp
        head, tail = 0, 1
        queue[0] = start
        size = 1
        while head < tail:
            u = queue[head]
            head += 1
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if labels[v] < 0:
                    labels[v] = comp
                    queue[tail] = v
                    tail += 1
                    size += 1
        sizes.append(size)
    return labels, sizes
