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
    Returns (community per vertex, whether any vertex moved).
    Sweeps end once n visits in a row, across sweeps, moved nothing: all
    saw one state (``tot`` sums are exact), so no later visit would move.
    """
    n = len(adj)
    comm = list(init) if init is not None else list(range(n))
    tot = [0.0] * (max(comm) + 1)
    for i in range(n):
        tot[comm[i]] += k[i]
    moved_any = False
    quiet = 0
    while quiet < n:
        for i in order:
            ci = comm[i]
            w_to: dict[int, float] = {}
            for j, w in adj[i].items():
                cj = comm[j]
                w_to[cj] = w_to.get(cj, 0.0) + w
            tot[ci] -= k[i]
            best_c = ci
            best_gain = w_to.pop(ci, 0.0) - tot[ci] * k[i] / two_m
            for c, w in w_to.items():
                gain = w - tot[c] * k[i] / two_m
                if gain > best_gain + _GAIN_EPS:
                    best_gain = gain
                    best_c = c
            tot[best_c] += k[i]
            if best_c != ci:
                comm[i] = best_c
                moved_any = True
                quiet = 0
            else:
                quiet += 1
                if quiet == n:
                    break
    return comm, moved_any


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
        comm, moved = _local_move(adj, k, two_m, order)
        dense, n_comms = _renumber(comm)
        if not moved or n_comms == len(adj):
            break
        membership = [dense[membership[v]] for v in range(n0)]
        adj, k = _aggregate(adj, k, dense, n_comms)
    order = list(range(n0))
    rng.shuffle(order)
    return _local_move(adj0, k0, two_m, order, init=membership)[0]


def louvain(g, seed: int = 0) -> Partition:
    """Greedy modularity optimization with seeded vertex orders.

    Runs ``_RESTARTS`` independent pipelines (sub-seeded from ``seed``) and
    keeps the one with the highest :func:`modularity`, the q it reports.
    Graphs with at most ``_EXACT_LIMIT`` vertices skip the heuristic and are
    solved exactly by enumeration.
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
    best: list[int] = list(range(n))
    if two_m > 0 and n <= _EXACT_LIMIT:
        best = _exact_partition(adj0, k0, two_m)
    elif two_m > 0:
        master = random.Random(seed)
        best_obj = -math.inf
        for _ in range(_RESTARTS):
            rng = random.Random(master.randrange(2**63))
            membership = _one_run(adj0, k0, two_m, rng)
            obj = modularity(proj, membership)
            if obj > best_obj:
                best_obj = obj
                best = membership
    assignments_list, n_communities = _renumber(best)
    assignments = np.asarray(assignments_list, dtype=np.int64)
    q = modularity(proj, assignments)
    return Partition(assignments=assignments, n_communities=n_communities, q=q)


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
