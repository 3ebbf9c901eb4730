"""Modularity and Louvain against hand values and exhaustive search."""
from __future__ import annotations

import random

import numpy as np
import pytest

import louvain_oracle
from jarnet import community
from jarnet.community import (
    community_size_distribution,
    louvain,
    modularity,
)
from jarnet.errors import EmptyGraph, PartitionMismatch
from jarnet.graph import DirectedGraph

from test_metrics import digraph, random_digraph


def clique_pair(size=5) -> DirectedGraph:
    edges = []
    for base in (0, size):
        edges += [(base + i, base + j) for i in range(size)
                  for j in range(i + 1, size)]
    return digraph(edges, n_hint=2 * size)


def all_partitions(n):
    """Restricted-growth strings: every partition of {0..n-1}."""
    def rec(i, maxc, current):
        if i == n:
            yield tuple(current)
            return
        for c in range(maxc + 2):
            current.append(c)
            yield from rec(i + 1, max(maxc, c), current)
            current.pop()
    yield from rec(0, -1, [])


def best_partition_q(g) -> float:
    best = -1.0
    for assignment in all_partitions(g.n):
        q = modularity(g, np.array(assignment))
        if q > best:
            best = q
    return best


# -- modularity ----------------------------------------------------------------

def test_single_community_is_zero():
    g = clique_pair(5)
    q = modularity(g, np.zeros(g.n, dtype=np.int64))
    assert q == 0.0


def test_two_cliques_split_is_half():
    g = clique_pair(5)
    assignment = np.array([0] * 5 + [1] * 5)
    assert modularity(g, assignment) == pytest.approx(0.5, abs=1e-12)


def test_two_triangles_split_is_half():
    g = clique_pair(3)
    assignment = np.array([0, 0, 0, 1, 1, 1])
    assert modularity(g, assignment) == pytest.approx(0.5, abs=1e-12)


def test_path_graph_hand_value():
    # P4 split into end pairs: Q = 2*(1/3 - (3/6)^2) = 1/6
    g = digraph([(0, 1), (1, 2), (2, 3)])
    assignment = np.array([0, 0, 1, 1])
    assert modularity(g, assignment) == pytest.approx(1 / 6, abs=1e-12)


def test_modularity_invariant_under_relabeling():
    rng = random.Random(21)
    g = random_digraph(12, 0.25, rng)
    assignment = np.array([rng.randrange(3) for _ in range(g.n)])
    relabeled = np.array([{0: 7, 1: 2, 2: 9}[c] for c in assignment])
    assert modularity(g, assignment) == pytest.approx(
        modularity(g, relabeled), abs=1e-15)


def test_modularity_errors():
    with pytest.raises(EmptyGraph):
        modularity(DirectedGraph(), np.array([], dtype=np.int64))
    g = digraph([(0, 1)])
    with pytest.raises(PartitionMismatch):
        modularity(g, np.array([0]))


def test_edgeless_graph_modularity_zero():
    g = digraph([], n_hint=3)
    assert modularity(g, np.zeros(3, dtype=np.int64)) == 0.0


# -- louvain --------------------------------------------------------------------

def test_louvain_two_cliques():
    g = clique_pair(5)
    part = louvain(g, seed=0)
    assert part.n_communities == 2
    assert part.q == pytest.approx(0.5, abs=1e-9)
    left = {part.assignments[i] for i in range(5)}
    right = {part.assignments[i] for i in range(5, 10)}
    assert len(left) == len(right) == 1 and left != right


def test_louvain_assignments_contract():
    rng = random.Random(22)
    g = random_digraph(30, 0.12, rng)
    part = louvain(g, seed=5)
    labels = set(part.assignments.tolist())
    assert labels == set(range(part.n_communities))  # dense labels
    assert part.q == pytest.approx(modularity(g, part.assignments), abs=1e-15)


def test_louvain_seed_determinism():
    rng = random.Random(23)
    g = random_digraph(40, 0.08, rng)
    a = louvain(g, seed=9)
    b = louvain(g, seed=9)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.q == b.q


def test_louvain_reaches_exhaustive_optimum_on_small_graphs():
    rng = random.Random(24)
    for _ in range(12):
        n = rng.randrange(3, 8)
        g = random_digraph(n, rng.uniform(0.2, 0.6), rng)
        part = louvain(g, seed=1)
        assert part.q >= best_partition_q(g) - 1e-9


def test_louvain_isolated_vertices_are_own_communities():
    g = digraph([(0, 1), (1, 0)], n_hint=4)
    part = louvain(g, seed=2)
    assert part.assignments[2] != part.assignments[3]
    assert part.n_communities == 3


def random_phase_input(rng: random.Random, density: float):
    """A weighted adjacency as an aggregation level sees it: integer-valued
    float weights, and strengths that add twice a self-loop weight.
    ``density`` scales the edge probability."""
    n = rng.randrange(2, 40)
    p = density * rng.uniform(0.05, 0.5)
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u][v] = adj[v][u] = float(rng.randrange(1, 4))
    k = [sum(row.values()) + 2.0 * rng.randrange(3) for row in adj]
    return adj, k, sum(k) or 2.0


@pytest.mark.parametrize("density", [0.5, 1.0, 2.0])
def test_local_move_phase_matches_oracle(density):
    # One phase compared with the oracle's at resolution 1.0: an early stop
    # that changes the path of moves fails here even where a whole run ends
    # in the same partition.
    rng = random.Random(int(density * 100))
    for _ in range(60):
        adj, k, two_m = random_phase_input(rng, density)
        n = len(adj)
        order = list(range(n))
        rng.shuffle(order)
        labels = rng.randrange(1, n + 1)
        init = [rng.randrange(labels) for _ in range(n)] if labels < n else None
        got = community._local_move(adj, k, two_m, order, init=init)
        want = louvain_oracle._local_move(adj, k, two_m, 1.0, order, init=init)
        assert got == want


def test_aggregate_phase_matches_oracle():
    # The oracle recounts each level's strengths from its edges and self
    # weights; _aggregate sums its members' k. Rows are filled in random
    # order, so an unsorted walk of adj[u] changes the new rows' order, which
    # drives _local_move's tie-breaks.
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randrange(2, 40)
        p = rng.uniform(0.05, 0.5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        rng.shuffle(pairs)
        adj: list[dict[int, float]] = [{} for _ in range(n)]
        for u, v in pairs:
            adj[u][v] = adj[v][u] = float(rng.randrange(1, 1 << 20))
        self_w = [float(rng.randrange(1 << 20)) for _ in range(n)]
        k = [sum(row.values()) + 2.0 * w for row, w in zip(adj, self_w)]
        n_comms = rng.randrange(1, n + 1)
        comm = list(range(n_comms)) + [rng.randrange(n_comms) for _ in range(n - n_comms)]
        rng.shuffle(comm)
        got_adj, got_k = community._aggregate(adj, k, comm, n_comms)
        want_adj, want_self = louvain_oracle._aggregate(adj, self_w, comm, n_comms)
        want_k = [sum(row.values()) + 2.0 * w for row, w in zip(want_adj, want_self)]
        assert [list(row.items()) for row in got_adj] == \
            [list(row.items()) for row in want_adj]
        assert [x.hex() for x in got_k] == [x.hex() for x in want_k]


def test_local_move_visits_every_vertex_before_stopping():
    # Only the last vertex of the order is out of place, so a phase that
    # stops before its first n visits misses the one move.
    adj = [{j: 1.0 for j in range(base, base + 4) if j != i}
           for base in (0, 4) for i in range(base, base + 4)]
    order = [0, 1, 2, 4, 5, 6, 7, 3]
    got = community._local_move(adj, [3.0] * 8, 24.0, order,
                                init=[0, 0, 0, 1, 1, 1, 1, 1])
    assert got == ([0] * 4 + [1] * 4, True)


# -- size distribution ------------------------------------------------------------

def test_community_size_distribution():
    g = clique_pair(5)
    part = louvain(g, seed=0)
    report = community_size_distribution(part, top=1)
    assert report.sizes == [5, 5]
    assert report.mean == pytest.approx(5.0)
    assert report.top_share == pytest.approx(0.5)


def test_size_distribution_top_clamps():
    g = clique_pair(3)
    part = louvain(g, seed=0)
    report = community_size_distribution(part, top=10)
    assert report.top_share == pytest.approx(1.0)
    assert sum(report.sizes) == g.n
