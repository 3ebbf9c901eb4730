"""Modularity scoring and Louvain community detection.

Both operate on the undirected projection of the call graph with unit
edge weights (self-loops dropped by the projection).
"""
from __future__ import annotations

import math
import random
from typing import NamedTuple

from ._lazy import np
from .errors import EmptyGraph, PartitionMismatch

__all__ = [
    "Partition",
    "CommunitySizeReport",
    "modularity",
    "louvain",
    "community_size_distribution",
]

_GAIN_EPS = 1e-12
_RESTARTS = 5  # seeded greedy runs per louvain call; the best q wins


class Partition(NamedTuple):
    assignments: np.ndarray
    n_communities: int
    q: float


class CommunitySizeReport(NamedTuple):
    sizes: list[int]
    mean: float
    top_share: float


def modularity(g, assignments) -> float:
    """Q = sum over communities of e_c/m - (d_c/2m)^2; 0 for edgeless graphs."""
    if g.n == 0:
        raise EmptyGraph("modularity needs at least one vertex")
    assignments = np.asarray(assignments)
    if assignments.shape[0] != g.n:
        raise PartitionMismatch(
            f"partition covers {assignments.shape[0]} vertices, graph has {g.n}")
    proj = g.undirected()
    m = proj.m
    if m == 0:
        return 0.0
    indptr, indices = proj.to_csr()
    dense, n_comms = _renumber(assignments.astype(np.int64).tolist())
    comm = np.asarray(dense, dtype=np.int64)
    rows = np.repeat(comm, np.diff(indptr))
    # A community's degree sum counts the CSR entries in its rows, and an
    # inner edge fills two. Python floats in first-appearance order: numpy's
    # x ** 2 is x * x, which differs from Python's in the last bit for some x.
    d_c = np.bincount(rows, minlength=n_comms).tolist()
    intra2 = np.bincount(rows[rows == comm[indices]], minlength=n_comms).tolist()
    q = 0.0
    for e2, d in zip(intra2, d_c):
        q += e2 // 2 / m - (d / (2.0 * m)) ** 2
    return q


def _local_move(adj, k, two_m, order, init=None):
    """One Louvain phase: greedy single-vertex moves until stable.

    adj: per-vertex dict neighbor -> weight (no self entries).
    Returns the community per vertex.
    Sweeps end once n visits in a row, across sweeps, moved nothing: all
    saw one state (``tot`` sums are exact), so no later visit would move.

    ``inner[i]`` maps each community next to i to i's edge weight into it
    (exact in any order, like ``tot``); a move updates its neighbours'. A
    vertex moves iff some community beats staying by more than ``_GAIN_EPS``;
    only then is ``adj[i]`` read, and a tie goes to the community met first.
    """
    n = len(adj)
    comm = list(init) if init is not None else list(range(n))
    tot = [0.0] * (max(comm) + 1)
    for i in range(n):
        tot[comm[i]] += k[i]
    if init is None:
        inner = [dict(row) for row in adj]
    else:
        inner = [{} for _ in range(n)]
        for row, to in zip(adj, inner):
            for j, w in row.items():
                to[comm[j]] = to.get(comm[j], 0.0) + w
    quiet = 0
    while quiet < n:
        for i in order:
            ci, ki, to = comm[i], k[i], inner[i]
            bar = to.get(ci, 0.0) - (tot[ci] - ki) * ki / two_m + _GAIN_EPS
            for c, w in to.items():
                if w - tot[c] * ki / two_m > bar and c != ci:
                    break
            else:
                quiet += 1
                if quiet == n:
                    break
                continue
            tot[ci] -= ki
            best_c, best_gain = ci, to.get(ci, 0.0) - tot[ci] * ki / two_m
            # A community met again, ci included, cannot beat best_gain.
            for j in adj[i]:
                c = comm[j]
                gain = to[c] - tot[c] * ki / two_m
                if gain > best_gain + _GAIN_EPS:
                    best_gain, best_c = gain, c
            tot[best_c] += ki
            comm[i] = best_c
            quiet = 0
            for j, w in adj[i].items():
                row = inner[j]
                left = row.pop(ci) - w
                if left:  # a community with no edge to j is no candidate
                    row[ci] = left
                row[best_c] = row.get(best_c, 0.0) + w
    return comm


def _renumber(comm):
    """Dense community ids in first-appearance order over vertex index."""
    mapping: dict[int, int] = {}
    dense = [mapping.setdefault(c, len(mapping)) for c in comm]
    return dense, len(mapping)


def _aggregate(adj, k, comm, n_comms):
    """Collapse communities into super-vertices, keeping edge weights, and sum their
    members' strengths ``k``: exact, as all are integer-valued floats below 2^53."""
    new_adj: list[dict[int, float]] = [{} for _ in range(n_comms)]
    new_k = [0.0] * n_comms
    for u in range(len(adj)):
        cu = comm[u]
        new_k[cu] += k[u]
        for v in sorted(adj[u]):
            if v < u:
                continue
            cv = comm[v]
            if cu != cv:
                w = adj[u][v]
                new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
                new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
    return new_adj, new_k


_EXACT_LIMIT = 8  # Bell(8) = 4140 candidate partitions: enumerating them
                  # costs milliseconds, so tiny graphs get the true optimum
                  # instead of a greedy approximation.


def _exact_partition(adj, k, two_m):
    """Optimal partition of a tiny graph by enumerating restricted-growth
    strings. Greedy single-vertex moves provably miss some optima on rugged
    landscapes this small, so below `_EXACT_LIMIT` we search outright.
    """
    n = len(adj)
    m = two_m / 2.0
    best_q = -math.inf
    best = list(range(n))
    comm = [0] * n
    members: list[list[int]] = [[] for _ in range(n)]
    dsum = [0.0] * n

    def rec(i, used, intra, sumsq):
        nonlocal best_q, best
        if i == n:
            q = intra / m - sumsq / (two_m * two_m)
            if q > best_q:
                best_q = q
                best = comm.copy()
            return
        ki = k[i]
        row = adj[i]
        for c in range(used + 1):
            gain = sum(row.get(j, 0.0) for j in members[c])
            comm[i] = c
            members[c].append(i)
            delta_sq = 2.0 * dsum[c] * ki + ki * ki
            dsum[c] += ki
            rec(i + 1, max(used, c + 1), intra + gain, sumsq + delta_sq)
            dsum[c] -= ki
            members[c].pop()

    rec(0, 0, 0.0, 0.0)
    # Placing a degree-0 vertex never changes the objective; keep the
    # convention that isolated vertices form their own communities.
    free = max(best) + 1
    for v in range(n):
        if k[v] == 0:
            best[v] = free
            free += 1
    return best


def _one_run(adj0, k0, two_m, rng):
    """Full greedy pipeline from level-0 strengths ``k0``: move/aggregate
    levels, then a vertex-level refinement sweep from the coarse result."""
    n0 = len(adj0)
    membership = list(range(n0))
    adj, k = adj0, k0
    while True:
        order = list(range(len(adj)))
        rng.shuffle(order)
        dense, n_comms = _renumber(_local_move(adj, k, two_m, order))
        if n_comms == len(adj):  # from singletons a move only merges: none moved
            break
        membership = [dense[membership[v]] for v in range(n0)]
        adj, k = _aggregate(adj, k, dense, n_comms)
    order = list(range(n0))
    rng.shuffle(order)
    return _local_move(adj0, k0, two_m, order, init=membership)


def louvain(g, seed: int = 0) -> Partition:
    """Greedy modularity optimization with seeded vertex orders.

    Each candidate is scored once by :func:`modularity`, and the first of
    highest score wins with that score as q. The candidates are ``_RESTARTS``
    pipelines sub-seeded from ``seed``, or the exact optimum by enumeration
    for at most ``_EXACT_LIMIT`` vertices, or every vertex alone if edgeless.
    """
    if g.n == 0:
        raise EmptyGraph("community detection needs at least one vertex")
    proj = g.undirected()
    n = proj.n
    indptr, indices = proj.to_csr()
    bounds, neighbors = indptr.tolist(), indices.tolist()
    adj0: list[dict[int, float]] = [
        dict.fromkeys(neighbors[bounds[u]:bounds[u + 1]], 1.0) for u in range(n)
    ]
    k0 = proj.degrees().astype(np.float64).tolist()
    two_m = 2.0 * proj.m
    if two_m == 0:
        runs = [list(range(n))]
    elif n <= _EXACT_LIMIT:
        runs = [_exact_partition(adj0, k0, two_m)]
    else:
        master = random.Random(seed)
        runs = (_one_run(adj0, k0, two_m, random.Random(master.randrange(2**63)))
                for _ in range(_RESTARTS))
    # modularity renumbers its input, so q is the renumbered winner's score.
    q, best = max(((modularity(proj, run), run) for run in runs),
                  key=lambda scored: scored[0])
    assignments, n_communities = _renumber(best)
    return Partition(assignments=np.asarray(assignments, dtype=np.int64),
                     n_communities=n_communities, q=q)


def community_size_distribution(partition: Partition, top: int = 10) -> CommunitySizeReport:
    """Community sizes in descending order, their mean, and the vertex
    share captured by the ``top`` largest communities."""
    counts = np.bincount(partition.assignments,
                         minlength=partition.n_communities)
    sizes = sorted((int(c) for c in counts), reverse=True)
    n = int(counts.sum())
    top_share = sum(sizes[:max(top, 0)]) / n if n else 0.0
    return CommunitySizeReport(
        sizes=sizes,
        mean=n / len(sizes) if sizes else 0.0,
        top_share=top_share,
    )
