"""Betweenness centrality, PageRank, and ranking helpers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import EmptyGraph
from .graph import DirectedGraph

__all__ = ["CentralityVector", "betweenness", "pagerank", "top_k"]


@dataclass(frozen=True)
class CentralityVector:
    measure: str
    labels: list[str] = field(repr=False)
    scores: np.ndarray = field(repr=False)
    normalized: bool = False
    converged: bool = True
    iterations: int = 0


def betweenness(
    g: DirectedGraph,
    directed: bool = True,
    normalized: bool = False,
) -> CentralityVector:
    """Shortest-path betweenness (endpoints excluded).

    The undirected variant runs on the projection and halves the scores so
    each unordered pair is counted once. Normalization divides by the number
    of pairs that could route through a vertex: (n-1)(n-2) directed,
    (n-1)(n-2)/2 undirected.
    """
    if g.n == 0:
        raise EmptyGraph("betweenness needs at least one vertex")
    n = g.n
    if directed:
        indptr, indices = g.to_csr()
        rindptr, rindices = g.to_csr(reverse=True)
    else:
        indptr, indices = g.undirected().to_csr()
        rindptr, rindices = indptr, indices
    scores = _kernels.brandes(indptr, indices, rindptr, rindices)
    if not directed:
        scores /= 2.0
    if normalized:
        denom = float((n - 1) * (n - 2))
        if not directed:
            denom /= 2.0
        if denom > 0:
            scores = scores / denom
    return CentralityVector("betweenness", list(g.labels), scores,
                            normalized=normalized)


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
                            normalized=True, converged=converged,
                            iterations=iterations)


def top_k(vector: CentralityVector, k: int = 10) -> list[tuple[str, float]]:
    """Highest-scoring vertices; ties break alphabetically by label."""
    order = sorted(range(len(vector.labels)),
                   key=lambda i: (-vector.scores[i], vector.labels[i]))
    return [(vector.labels[i], float(vector.scores[i])) for i in order[:k]]
