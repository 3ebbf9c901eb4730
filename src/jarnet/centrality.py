"""Betweenness centrality, PageRank, and ranking helpers."""
from __future__ import annotations

from typing import NamedTuple

from . import _kernels
from ._lazy import np
from .errors import EmptyGraph
from .graph import DirectedGraph, UndirectedGraph

__all__ = ["CentralityVector", "betweenness", "pagerank", "top_k"]


class CentralityVector(NamedTuple):
    measure: str
    labels: list[str]
    scores: np.ndarray
    converged: bool = True
    iterations: int = 0


def betweenness(g: DirectedGraph | UndirectedGraph) -> CentralityVector:
    """Raw shortest-path betweenness (endpoints excluded), as networkx's
    ``betweenness_centrality(normalized=False)`` gives it: over ordered
    pairs of a DirectedGraph, over unordered pairs of an UndirectedGraph."""
    if g.n == 0:
        raise EmptyGraph("betweenness needs at least one vertex")
    indptr, indices = g.to_csr()
    scores = _kernels.brandes(indptr, indices)
    if isinstance(g, UndirectedGraph):
        # The kernel walks each unordered pair both ways; halving is exact.
        scores *= 0.5
    return CentralityVector("betweenness", list(g.labels), scores)


def pagerank(
    g: DirectedGraph,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> CentralityVector:
    """Power iteration with uniform teleport and dangling redistribution.

    Stops when the L1 change drops below ``tol``; hitting ``max_iter``
    first sets converged=False rather than raising.
    """
    if g.n == 0:
        raise EmptyGraph("pagerank needs at least one vertex")
    n = g.n
    indptr, dst = g.to_csr()
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    out = np.diff(indptr).astype(np.float64)
    dangling = out == 0.0
    rank = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        contrib = rank[src] / out[src]
        acc = np.bincount(dst, weights=contrib, minlength=n)
        loose = float(rank[dangling].sum())
        new_rank = damping * (acc + loose / n) + (1.0 - damping) / n
        err = float(np.abs(new_rank - rank).sum())
        rank = new_rank
        if err < tol:
            converged = True
            break
    return CentralityVector("pagerank", list(g.labels), rank,
                            converged=converged, iterations=iterations)


def top_k(vector: CentralityVector, k: int = 10) -> list[tuple[str, float]]:
    """Highest-scoring vertices; ties break alphabetically by label.

    Only the vertices scoring at least the k-th highest score are sorted;
    they include every vertex tied with it.
    """
    k = max(k, 0)
    scores = vector.scores
    n = scores.shape[0]
    candidates = range(n)
    if 0 < k < n:
        candidates = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k]).tolist()
    order = sorted(candidates, key=lambda i: (-scores[i], vector.labels[i]))
    return [(vector.labels[i], float(scores[i])) for i in order[:k]]
