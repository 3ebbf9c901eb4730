"""Scalar Brandes: the betweenness kernel that the batched numpy
``jarnet._kernels.brandes`` replaced, kept verbatim as a bit-exact oracle.

One source at a time, in vertex order; every float addition happens in
the order this loop performs it, which the batched kernel must reproduce.
"""
from __future__ import annotations

import numpy as np


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
